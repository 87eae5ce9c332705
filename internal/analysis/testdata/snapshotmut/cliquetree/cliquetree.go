// Package cliquetree mirrors the CSR clique forest (internal/cliquetree):
// Clique, Nbrs and PhiRow return shared views into the forest's storage
// that snapshotmut must keep read-only.
package cliquetree

type CSRForest struct {
	cliquePtr []int32
	cliqueMem []int32
	adjPtr    []int32
	adj       []int32
	phiPtr    []int32
	phi       []int32
}

// Clique returns clique c's member rows as a shared view.
func (f *CSRForest) Clique(c int32) []int32 { return f.cliqueMem[f.cliquePtr[c]:f.cliquePtr[c+1]] }

// Nbrs returns clique c's forest neighbors as a shared view.
func (f *CSRForest) Nbrs(c int32) []int32 { return f.adj[f.adjPtr[c]:f.adjPtr[c+1]] }

// PhiRow returns the cliques containing node v as a shared view.
func (f *CSRForest) PhiRow(v int32) []int32 { return f.phi[f.phiPtr[v]:f.phiPtr[v+1]] }
