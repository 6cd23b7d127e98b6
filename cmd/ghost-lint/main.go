// ghost-lint runs the repo's custom static-analysis suite
// (internal/analysis) over the given package patterns and exits
// non-zero on any finding. It mechanically enforces the simulator's
// determinism and hot-path conventions:
//
//	determinism   — no wall-clock or global/unseeded rand in sim code,
//	                enforced interprocedurally: a banned call in any
//	                package reachable from sim code is reported with its
//	                full call path
//	maporder      — no map-iteration order escaping into schedules/reports
//	hotpathalloc  — no per-call closures at AtCall/AfterCall/Schedule sites
//	eventhandle   — sim.Event handles held by value, never compared with ==
//	apisurface    — facade packages (ghost, env) never spell internal/* types
//	                in exported signatures (aliases/re-exports are exempt)
//	unreachable   — no declared function that no root reaches: mains,
//	                inits, package-level var initializers, facade exports,
//	                standard-library interface methods, names spelled in
//	                nested modules, //ghostlint:root functions; tests root
//	                nothing; silent unless the whole module is loaded
//	hotpathescape — (with -escape) compiler-reported heap escapes reachable
//	                from the 0-alloc benchmark roots must be in the
//	                committed baseline (internal/analysis/escape_baseline.txt)
//
// Usage:
//
//	ghost-lint [-summary] [-check name[,name...]] [-escape|-escape-update] [packages]
//
// -escape compiles the module with -gcflags=-m=2 (cheap on a warm build
// cache — diagnostics replay) and gates hot-path escapes against the
// baseline; -escape-update rewrites the baseline to the current set.
// Findings are waived per file with `//ghostlint:allow <check> <reason>`,
// and a function is kept as an unreachable root with
// `//ghostlint:root <reason>` in its doc comment; -summary reports kept
// and suppressed counts per check.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ghost/internal/analysis"
)

func main() {
	summary := flag.Bool("summary", false, "print per-check found/suppressed counts")
	checks := flag.String("check", "", "comma-separated subset of checks to run (default: all)")
	escape := flag.Bool("escape", false, "also run hotpathescape (compiles the module for escape analysis)")
	escapeUpdate := flag.Bool("escape-update", false, "rewrite the hot-path escape baseline to the current set")
	flag.Parse()

	var analyzers []*analysis.Analyzer
	if *checks == "" {
		analyzers = analysis.Analyzers()
		if *escape || *escapeUpdate {
			analyzers = analysis.AllAnalyzers()
		}
	} else {
		for _, name := range strings.Split(*checks, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ghost-lint: unknown check %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
			if a.NeedsBuild {
				*escape = true
			}
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghost-lint: %v\n", err)
		os.Exit(2)
	}

	prog := &analysis.Program{Pkgs: pkgs}
	if *escape || *escapeUpdate {
		// The escape gate is whole-module by construction: the compiler
		// emits diagnostics per compiled package, and the baseline keys
		// must not depend on which patterns were given. The root must be
		// absolute so the diagnostics' filenames join against the
		// loader's absolute positions.
		root, err := filepath.Abs(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghost-lint: %v\n", err)
			os.Exit(2)
		}
		escapes, err := analysis.LoadEscapes(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghost-lint: %v\n", err)
			os.Exit(2)
		}
		prog.Escapes = escapes
		prog.EscapeBaseline, err = analysis.LoadEscapeBaseline(analysis.EscapeBaselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghost-lint: %v\n", err)
			os.Exit(2)
		}
	}

	if *escapeUpdate {
		keys := analysis.EscapeKeys(prog)
		if err := analysis.WriteEscapeBaseline(analysis.EscapeBaselinePath, keys); err != nil {
			fmt.Fprintf(os.Stderr, "ghost-lint: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("ghost-lint: wrote %d hot-path escape key(s) to %s\n",
			len(keys), filepath.Clean(analysis.EscapeBaselinePath))
		return
	}

	res := analysis.RunProgram(prog, analyzers)
	wd, _ := os.Getwd()
	for _, d := range res.Diagnostics {
		fmt.Println(d.String(wd))
	}
	if *summary {
		for _, a := range analyzers {
			fmt.Printf("ghost-lint: %-13s %d finding(s), %d suppressed\n",
				a.Name, res.Found[a.Name], res.Suppressed[a.Name])
		}
		if n := res.Found["ghostlint"]; n > 0 {
			fmt.Printf("ghost-lint: %-13s %d malformed directive(s)\n", "ghostlint", n)
		}
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}
