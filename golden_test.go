package wearwild

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
)

// goldenLogs are the SHA-256 digests of SmallConfig(42)'s logs in
// sim.Save's uncompressed formats.
var goldenLogs = map[string]string{
	"proxy.bin": "a9e09dc5066dc7a24efeb8f1fb09d54ccb9fdf53932db74349f0a7499cf37bcb",
	"mme.csv":   "8897dfb3895055b0133630cdd7035f3fed8ef5f9ef321610515759589be02325",
	"udr.csv":   "87d1decadcabf39d01f271964da570c9a1ef7ddd11672c6604cb428067db70ce",
}

// goldenResults holds one SHA-256 per top-level Results field, of that
// field's JSON, for the default study of SmallConfig(42).
var goldenResults = map[string]string{
	"Fig2a":     "6440603c20e90b9664b6c2bc91e1e90b0e35821e2bab2cad10eafbc92b996e6c",
	"Fig2b":     "2057c849a4554a1f6aa37b8539f38eede6c3f1b6730314835b49aa3a4809e542",
	"Fig3a":     "5df75818b08bd577b4e7de5fe7a4fe0a0b37ced6c8a95d6e21f9a09aef704981",
	"Fig3b":     "07961608b9ad84da370a718c250e7da24dcaf3106064cb733de190c873715970",
	"Fig3c":     "03850b55454c28019f9dd64d45c6de2869b6482575ff0e2144a043f9ee20634a",
	"Fig3d":     "55f0a4f6545935c22f8102a2897b439af7a7ae3a4f1516c80c85b44d89744122",
	"Fig4a":     "a0e25557e27fbd7546615f356e3f07df30372075076dd95358f31a54cc88da83",
	"Fig4b":     "f0ee18d19683049eeb413edcd29ead152da77a3a928a94eb1efe23e5e095c313",
	"Fig4c":     "6569c3e69cf1b35e626eec912566a2286124d160db91fb5fb72467fa280b5cc4",
	"Fig4d":     "208f4d1e84957dd0fdac49dec7729e597f27e4b6955110c03a8528d88cc2deb2",
	"Fig5a":     "12f9ee8d69a7ec7232d155c5f0fdcda5a3627f2367efe3eac3d5e9f52e262324",
	"Fig5b":     "babd73419f6c5fa4840cbd93d4fb855ee2657141edb593e5589a62e5f8f47406",
	"Fig6":      "e557ae1a72357905e4bcad8b03cb5dfed5eb8598e96806102a172acf60f81e52",
	"Fig7":      "de4f5da664077238d6a7f80302b0ccf7cb56300fef905ca7ba9a0a6002dc4003",
	"Fig8":      "adc35e7f9b77d9661179a7c6996818d12c0d418084c31f2d1b1c23d2824b0ce5",
	"Weekly":    "70fa80db7373377aee9277742a037e4d01b08aecf866c16fcd612dea6c1fe859",
	"PlanCost":  "b641e9714990871cc609ebaad0bd650abbe2f269e4f3dc83601796c72cea4f7a",
	"Takeaways": "17161d9bd283c08e82c091c928035bb4cb82aa01eaf355cb902c3810ab784bd1",
	"TD":        "4b86db41ef853ed612d90752aae85b1d810fdda4bb1c1eafd39cab958dbc0d45",
}

// goldenMarkdown is the SHA-256 of the rendered EXPERIMENTS markdown,
// WriteExperimentsMarkdown(Evaluate(res)), for the same study.
const goldenMarkdown = "1968b0c76c4e6e9f742d2f18eac953ec49d57cfcc7cd4928d20935b810ba193a"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests is the behaviour oracle: digests recorded outside the
// engine pin the generator, the codecs, every figure of the study and the
// rendered markdown, so a refactor that moves a byte fails here and names
// the log, Results field or markdown that diverged.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	ds := eqDataset(t)

	var logs [3]bytes.Buffer
	if err := proxylog.WriteBinary(&logs[0], ds.Proxy.Records); err != nil {
		t.Fatal(err)
	}
	if err := mme.WriteCSV(&logs[1], ds.MME.Records); err != nil {
		t.Fatal(err)
	}
	if err := udr.WriteCSV(&logs[2], ds.UDR.Records); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"proxy.bin", "mme.csv", "udr.csv"} {
		if got := sha256Hex(logs[i].Bytes()); got != goldenLogs[name] {
			t.Errorf("log %s: digest %s, golden %s", name, got, goldenLogs[name])
		}
	}

	res, err := RunStudy(ds)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		raw, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(raw); got != goldenResults[name] {
			t.Errorf("Results.%s: digest %s, golden %q", name, got, goldenResults[name])
		}
	}
	if len(goldenResults) != v.NumField() {
		t.Errorf("%d golden Results fields for %d in Results", len(goldenResults), v.NumField())
	}

	var md bytes.Buffer
	if err := WriteExperimentsMarkdown(&md, Evaluate(res)); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(md.Bytes()); got != goldenMarkdown {
		t.Errorf("markdown: digest %s, golden %s", got, goldenMarkdown)
	}
}
