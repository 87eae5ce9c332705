package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// HotAlloc enforces per-root allocation budgets on the repo's hot
// paths. A function annotated
//
//	//chordalvet:hotpath budget=N <justification>
//
// is a root; the hot region is every function reachable from it over
// static, function-value, and goroutine-spawn edges (interface dispatch
// is excluded — dynamic callees get their own roots), pruned at
// functions annotated //chordalvet:coldpath <justification>. The
// analyzer counts the region's statically visible allocation sites —
// make, new, &composite, map/slice literals, appends without prealloc
// evidence, capturing closures, interface boxing — and fails when the
// count differs from the committed budget. Budgets are exact: a budget
// above the count would leave slack for a new site to fill silently, so
// introducing a single new allocation site inside the decide kernel,
// the peel workers, the engine round loop, or the flood round step fails
// `make lint` before it ever shows up as a B/op regression in a
// benchmark, and so does removing one without lowering the budget.
// Likewise a coldpath directive on a function no hot-root traversal
// reaches prunes nothing and is reported, so stale exemptions go.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "allocation sites reachable from //chordalvet:hotpath roots differ from the committed budget, or a coldpath directive prunes nothing",
	RunModule: runHotAlloc,
}

func runHotAlloc(mp *ModulePass) {
	for _, report := range HotPathReports(mp.Facts) {
		root := report.Root
		if root.Budget < 0 {
			mp.Reportf(root.Pos, "malformed hotpath directive on %s: want //chordalvet:hotpath budget=N", root.Node.Name())
			continue
		}
		switch {
		case report.Sites > root.Budget:
			mp.Reportf(root.Pos, "hot path %s has %d reachable allocation sites, over its budget of %d — per function: %s (raise the budget only with a benchmark justification; prefer scratch reuse or prealloc)",
				root.Node.Name(), report.Sites, root.Budget, report.Breakdown())
		case report.Sites < root.Budget:
			mp.Reportf(root.Pos, "hot path %s has %d reachable allocation sites, under its budget of %d — lower the budget to %d (budgets are exact)",
				root.Node.Name(), report.Sites, root.Budget, report.Sites)
		}
	}
	for _, n := range unreachedColdPaths(mp.Facts) {
		mp.Reportf(mp.Facts.coldpath[n], "coldpath directive on %s prunes nothing: no hot path reaches it — delete the directive", n.Name())
	}
}

// unreachedColdPaths returns, in call-graph order, the coldpath-
// annotated functions that no hot root's traversal meets.
func unreachedColdPaths(facts *Facts) []*FuncNode {
	met := make(map[*FuncNode]bool)
	for _, root := range facts.HotRoots() {
		facts.Graph.Reachable(root.Node, HotEdges, func(n *FuncNode) bool {
			if facts.IsColdPath(n) {
				met[n] = true
				return true
			}
			return false
		})
	}
	var out []*FuncNode
	for _, n := range facts.Graph.Order {
		if facts.IsColdPath(n) && !met[n] {
			out = append(out, n)
		}
	}
	return out
}

// HotPathReport is one root's budget accounting, exported so
// cmd/chordalvet -budgets can print the usage table.
type HotPathReport struct {
	Root  *HotRoot
	Sites int
	// PerFunc lists the region functions that contribute sites, sorted
	// by descending count then name.
	PerFunc []FuncSites
	// Region is the region size in functions (after coldpath pruning).
	Region int
}

// FuncSites is one function's share of a hot region's allocation sites.
type FuncSites struct {
	Name  string
	Sites int
	Kinds string // comma-separated kind=count pairs, sorted by kind
}

// Breakdown renders the per-function site counts for diagnostics,
// capped at the eight largest contributors.
func (r *HotPathReport) Breakdown() string {
	var parts []string
	for i, fs := range r.PerFunc {
		if i == 8 {
			parts = append(parts, "…")
			break
		}
		parts = append(parts, fmt.Sprintf("%s=%d", fs.Name, fs.Sites))
	}
	if len(parts) == 0 {
		return "(no sites)"
	}
	return strings.Join(parts, ", ")
}

// HotPathReports computes the budget accounting for every hotpath root
// in the module, in root position order.
func HotPathReports(facts *Facts) []*HotPathReport {
	var out []*HotPathReport
	for _, root := range facts.HotRoots() {
		region := facts.Graph.Reachable(root.Node, HotEdges, facts.IsColdPath)
		sortNodesByPos(facts.Graph.Fset, region)
		report := &HotPathReport{Root: root, Region: len(region)}
		for _, n := range region {
			s := facts.SummaryOf(n)
			if len(s.Allocs) == 0 {
				continue
			}
			report.Sites += len(s.Allocs)
			kinds := make(map[string]int)
			for _, a := range s.Allocs {
				kinds[a.Kind]++
			}
			kindNames := make([]string, 0, len(kinds))
			for k := range kinds {
				kindNames = append(kindNames, k)
			}
			sort.Strings(kindNames)
			var kp []string
			for _, k := range kindNames {
				kp = append(kp, fmt.Sprintf("%s=%d", k, kinds[k]))
			}
			report.PerFunc = append(report.PerFunc, FuncSites{
				Name:  n.Name(),
				Sites: len(s.Allocs),
				Kinds: strings.Join(kp, ","),
			})
		}
		sort.SliceStable(report.PerFunc, func(i, j int) bool {
			a, b := report.PerFunc[i], report.PerFunc[j]
			if a.Sites != b.Sites {
				return a.Sites > b.Sites
			}
			return a.Name < b.Name
		})
		out = append(out, report)
	}
	return out
}
