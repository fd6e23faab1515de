// Command tsubame-analyze runs the paper's RQ1-RQ5 analysis battery over
// a failure log (CSV, NDJSON, or columnar .tsbc, as produced by
// tsubame-gen or converted from an operator's log) and prints the
// per-system tables and figures. The input format is auto-detected from
// the file extension or the leading bytes; unrecognizable input is a
// usage error (exit 2).
//
// Usage:
//
//	tsubame-analyze -in tsubame2.csv
//	tsubame-gen -system t3 -format tsbc | tsubame-analyze
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/textreport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-analyze: ")
	var (
		in        = flag.String("in", "", "input log file (default stdin)")
		format    = flag.String("format", "auto", "input format: auto, csv, ndjson, or tsbc (auto sniffs extension, then content)")
		para      = flag.Int("parallel", 0, "analysis worker-pool width (0 = all cores, 1 = sequential)")
		manifest  = cli.ManifestFlag()
		debugAddr = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.NonNegativeInt("parallel", *para),
	)
	run, err := cli.StartRun("tsubame-analyze", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}

	var r io.Reader = os.Stdin
	name := "stdin"
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
		name = *in
	}
	failureLog, err := cli.ReadLog(r, cli.DetectFormat(*format, name))
	if err != nil {
		cli.FatalLoad(err)
	}
	study, err := core.Run(failureLog, core.Options{Parallelism: *para})
	if err != nil {
		log.Fatal(err)
	}
	if m := run.Manifest(); m != nil {
		m.PoolWidth = parallel.Width(*para, 0)
		m.SetRecordCount("records", failureLog.Len())
	}

	textreport.Analyze(os.Stdout, study, failureLog)
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
