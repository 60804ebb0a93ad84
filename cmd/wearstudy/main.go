// Command wearstudy runs the paper's full analysis over a dataset and
// prints every figure. Without -data it generates a dataset in memory.
// -eval appends the paper-vs-measured table (the EXPERIMENTS.md body),
// reports "N/M metrics in band" on stderr and exits 1 when any metric is
// out of band.
//
// Usage:
//
//	wearstudy [-data dataset/] [-seed 42] [-small] [-rows 25] [-eval]
package main

import (
	"flag"
	"log"
	"os"

	"wearwild"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wearstudy: ")

	var (
		data = flag.String("data", "", "dataset directory from wearsim (optional)")
		seed = flag.Uint64("seed", 42, "seed when generating in memory")
		smol = flag.Bool("small", false, "use the fast small-scale configuration")
		rows = flag.Int("rows", 25, "max rows in app tables (0 = all)")
		eval = flag.Bool("eval", false, "append the paper-vs-measured evaluation")
	)
	flag.Parse()

	var (
		ds  *wearwild.Dataset
		err error
	)
	if *data != "" {
		ds, err = wearwild.Load(*data)
	} else {
		cfg := wearwild.DefaultConfig(*seed)
		if *smol {
			cfg = wearwild.SmallConfig(*seed)
		}
		ds, err = wearwild.Generate(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	res, err := wearwild.RunStudy(ds)
	if err != nil {
		log.Fatal(err)
	}
	wearwild.Render(os.Stdout, res, *rows)

	if *eval {
		evals := wearwild.Evaluate(res)
		if err := wearwild.WriteExperimentsMarkdown(os.Stdout, evals); err != nil {
			log.Fatal(err)
		}
		pass, total := 0, 0
		for _, e := range evals {
			for _, m := range e.Metrics {
				total++
				if m.OK() {
					pass++
				}
			}
		}
		log.Printf("%d/%d metrics in band", pass, total)
		if pass < total {
			os.Exit(1)
		}
	}
}
