// Command nbrtable1 prints the paper's Table 1 (applicability of SMR
// algorithms) as encoded — and enforced at construction time — by the
// harness, and with -loc reports the reclamation-related lines of code per
// data structure (the paper's Fig. 2 / §5.3 ease-of-use comparison: NBR
// needed ~10 extra lines where hazard pointers needed ~30).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nbr/internal/catalog"
)

func main() {
	loc := flag.Bool("loc", false, "count SMR-integration call sites per data structure (Fig. 2 / §5.3)")
	flag.Parse()

	catalog.PrintTable1(os.Stdout)
	if !*loc {
		return
	}

	fmt.Println("\nSMR integration call sites per data structure (ease-of-use, §5.3):")
	fmt.Println("  calls counted: BeginRead/EndRead/Reserve (NBR-specific) and Protect/NeedsValidation (HP-family-specific)")
	dirs := map[string]string{
		"lazylist": "internal/ds/lazylist",
		"harris":   "internal/ds/harrislist",
		"hmlist":   "internal/ds/hmlist",
		"dgt":      "internal/ds/dgtbst",
		"abtree":   "internal/ds/abtree",
	}
	for name, dir := range dirs {
		nbrCalls, hpCalls, err := countCalls(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbrtable1:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-10s NBR-specific call sites: %2d   HP-family-specific: %2d\n", name, nbrCalls, hpCalls)
	}
}

// countCalls scans non-test Go sources for guard call sites.
func countCalls(dir string) (nbrCalls, hpCalls int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			for _, pat := range []string{".BeginRead(", ".EndRead(", ".Reserve("} {
				nbrCalls += strings.Count(line, pat)
			}
			for _, pat := range []string{".Protect(", ".NeedsValidation("} {
				hpCalls += strings.Count(line, pat)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
	}
	return nbrCalls, hpCalls, nil
}
