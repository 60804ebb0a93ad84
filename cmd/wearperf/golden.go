package main

// goldenSeed is the default seed, and the one whose digests are pinned.
const goldenSeed = 1234

// pin is the SHA-256 of a dataset's uncompressed encoded logs (proxy
// binary, MME CSV, UDR CSV) and of its reference Results JSON.
type pin struct {
	logs    [3]string
	results string
}

// pinned holds the digests for goldenSeed, per dataset size. They were
// recorded from this benchmark and pin the generator, the codecs and the
// study: a change to any of them fails the golden-seed run.
var pinned = map[string]pin{
	"quarter": {
		logs: [3]string{
			"05e24edc3b6835b2bc4409f15ba4e4259802f05f81e771a98a5550426b664397",
			"0625fdc49c4011d1c8ce78cf3a84f178937e929b083609db90bcb9db236e92e3",
			"806c89f2b46fe2cd3ebad9e778ccccfb145797f531f8a1f369759f5f83b8fcac",
		},
		// Of the logs decoded back from the files (see prepare).
		results: "6080c38d86a5927406f74fb6f75ed1ff05e623aceed290f9973a42f75aef373f",
	},
	"half": {
		logs: [3]string{
			"01f4b775b5d0860b41ddb7ff2b907a7f265f08a5cf3e05a4ea69a7fbfbeb0b9e",
			"215a049249a89da92d0c523b0c6babddceaf2596915845ff8d2b512e065715cd",
			"31166bfa55620a12c1299f3e9bd06ce91c117ebc471d51eed4f07b1026a2f3b7",
		},
		// Of the generated logs.
		results: "f75193951c82ebe9a58d6b840a4ffcb62c518089d9ce2b036f65b6b3b9a71e97",
	},
	"small": {
		logs: [3]string{
			"4e2127f9dd1ab51fc64bf68cb6d53dd9ce29c668b2b6be7f8289177eb3d726cc",
			"22fffd6ddb117bfe08af6d393f4130d71d4de2379873a99ea71a377cde9afdba",
			"766e97193330a5a51b65dbb0312f7fcfe07647d9b4d83f939f3640bae58ef4c6",
		},
		// Of the generated logs.
		results: "14236c9434528ff54e0925cca7dcefd8c26d4b326a848efd579701d2cc8b343a",
	},
}
