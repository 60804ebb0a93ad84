// Command wearbench runs the full reproduction — generate, study,
// evaluate — and emits the paper-vs-measured comparison, either as a
// terminal report or as the EXPERIMENTS.md markdown body.
//
// Usage:
//
//	wearbench [-seed 1234] [-small] [-markdown] [-o EXPERIMENTS.md]
//
// The repository benchmark is cmd/wearperf.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"wearwild"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wearbench: ")

	var (
		seed     = flag.Uint64("seed", 1234, "generation seed")
		small    = flag.Bool("small", false, "use the fast small-scale configuration")
		markdown = flag.Bool("markdown", false, "emit markdown instead of the terminal table")
		outPath  = flag.String("o", "", "write output to a file instead of stdout")
	)
	flag.Parse()

	cfg := wearwild.DefaultConfig(*seed)
	if *small {
		cfg = wearwild.SmallConfig(*seed)
	}

	t0 := time.Now()
	ds, err := wearwild.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tGen := time.Since(t0)

	t1 := time.Now()
	res, err := wearwild.RunStudy(ds)
	if err != nil {
		log.Fatal(err)
	}
	tStudy := time.Since(t1)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}

	evals := wearwild.Evaluate(res)
	if *markdown {
		fmt.Fprintf(out, "# EXPERIMENTS — paper vs measured\n\n")
		fmt.Fprintf(out, "Seed %d, %d wearable + %d ordinary users; generate %v, study %v.\n\n",
			*seed, cfg.Population.WearableUsers, cfg.Population.OrdinaryUsers,
			tGen.Round(time.Millisecond), tStudy.Round(time.Millisecond))
		if err := wearwild.WriteExperimentsMarkdown(out, evals); err != nil {
			log.Fatal(err)
		}
		return
	}

	pass, total := 0, 0
	for _, e := range evals {
		fmt.Fprintf(out, "\n%s — %s\n", e.ID, e.Title)
		for _, m := range e.Metrics {
			fmt.Fprintf(out, "  %s\n", m)
			total++
			if m.OK() {
				pass++
			}
		}
	}
	fmt.Fprintf(out, "\n%d/%d metrics in band (generate %v, study %v)\n",
		pass, total, tGen.Round(time.Millisecond), tStudy.Round(time.Millisecond))
	if pass < total {
		os.Exit(1)
	}
}
