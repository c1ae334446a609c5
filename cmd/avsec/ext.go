package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"autosec/internal/ext"
)

// runExt lists the binary's registered extensions — every channel
// suite and attack, including drop-ins linked into this build. The
// catalog and its JSON shape are exactly what the avsecd daemon serves
// at GET /api/v1/extensions, so the two listings cannot drift.
func runExt(args []string) {
	fs := flag.NewFlagSet("ext", flag.ExitOnError)
	kind := fs.String("kind", "", "list only this extension kind")
	jsonOut := fs.Bool("json", false, "emit the catalog as JSON (the daemon's /api/v1/extensions shape)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	metas := ext.All()
	if *kind != "" {
		known := false
		for _, k := range ext.Kinds() {
			if k == *kind {
				known = true
				break
			}
		}
		if !known {
			fail(fmt.Errorf("ext: unknown kind %q — kinds: %v", *kind, ext.Kinds()))
		}
		var keep []ext.Meta
		for _, m := range metas {
			if m.Kind == *kind {
				keep = append(keep, m)
			}
		}
		metas = keep
	}

	if *jsonOut {
		if metas == nil {
			metas = []ext.Meta{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ext.CatalogDoc{Extensions: metas}); err != nil {
			fail(err)
		}
		return
	}

	last := ""
	for _, m := range metas {
		if m.Kind != last {
			if last != "" {
				fmt.Println()
			}
			fmt.Printf("== %s ==\n", m.Kind)
			last = m.Kind
		}
		caps := "-"
		if len(m.Caps) > 0 {
			caps = ""
			for i, c := range m.Caps {
				if i > 0 {
					caps += ","
				}
				caps += c
			}
		}
		fmt.Printf("%-18s %-18s %s\n", m.Name, caps, m.Description)
		if m.Paper != "" {
			fmt.Printf("%-18s %-18s ↳ %s\n", "", "", m.Paper)
		}
	}
	fmt.Fprintf(os.Stderr, "avsec: %d extensions across %d kinds\n", len(metas), len(ext.Kinds()))
}
