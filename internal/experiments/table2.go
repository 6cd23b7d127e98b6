package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
)

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Lines of code (Table 2)",
		Run:   runTable2,
	})
}

// runTable2 reproduces Table 2 with this repository's own line counts
// next to the paper's. Counts exclude tests and blank lines.
func runTable2(o Options) *Report {
	rep := &Report{
		ID: "table2", Title: "Lines of code",
		Header: []string{"component", "paper(LOC)", "this repo(LOC)", "path"},
	}
	root := moduleRoot()
	count := func(rel string, files ...string) string {
		if root == "" {
			return "n/a"
		}
		if len(files) == 0 {
			return itoa(countDir(filepath.Join(root, rel)))
		}
		n := 0
		for _, f := range files {
			n += countFile(filepath.Join(root, rel, f))
		}
		return itoa(n)
	}
	rep.AddRow("Linux CFS", "6217", count("internal/kernel", "cfs.go"), "internal/kernel/cfs.go")
	rep.AddRow("Shinjuku (data plane)", "3900", count("internal/baselines", "shinjuku.go"), "internal/baselines/shinjuku.go")
	rep.AddRow("ghOSt kernel scheduling class", "3777", count("internal/ghostcore"), "internal/ghostcore/")
	rep.AddRow("ghOSt userspace support library", "3115", count("internal/agentsdk"), "internal/agentsdk/")
	rep.AddRow("Shinjuku policy", "710", count("internal/policies", "shinjuku.go"), "internal/policies/shinjuku.go")
	rep.AddRow("Snap policy (CentralFIFO)", "855", count("internal/policies", "centralfifo.go"), "internal/policies/centralfifo.go")
	rep.AddRow("Search policy", "929", count("internal/policies", "search.go"), "internal/policies/search.go")
	rep.AddRow("Secure VM kernel policy", "7164", count("internal/baselines", "coresched.go"), "internal/baselines/coresched.go")
	rep.AddRow("Secure VM ghOSt policy", "4702", count("internal/policies", "coresched.go"), "internal/policies/coresched.go")
	if root == "" {
		rep.Notef("the line counts need the source tree: run ghost-bench from inside the repository")
	}
	rep.Notef("policies are 1-2 orders of magnitude smaller than the kernel/dataplane " +
		"implementations they replace — the paper's central LOC claim")
	return rep
}

// moduleRoot walks up from the working directory to this module's
// go.mod, "" if the directory is outside the source tree.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(mod), "module ghost\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

func countDir(dir string) int {
	n := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		n += countFile(filepath.Join(dir, e.Name()))
	}
	return n
}

func countFile(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
