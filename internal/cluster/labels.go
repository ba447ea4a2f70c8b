package cluster

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/seq"
)

// PartitionLabels canonicalizes a clustering result: each fragment is
// labeled with the smallest fragment index in its cluster, so two
// results describe the same partition exactly when their label slices
// are equal. This is the serial-equivalence oracle form used by the
// fault experiments and the simulation harness.
func PartitionLabels(res *Result) []int {
	labels := make([]int, res.N)
	smallest := make(map[int]int)
	for i := 0; i < res.N; i++ {
		r := res.UF.Find(i)
		if _, ok := smallest[r]; !ok {
			smallest[r] = i
		}
		labels[i] = smallest[r]
	}
	return labels
}

// SamePartition reports whether two canonical label slices describe
// the same partition of the same fragment set.
func SamePartition(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// WriteTSV writes the cluster assignment to path, one line per
// fragment: its name and its canonical label (PartitionLabels). A
// failed flush or close is returned — a short file must not pass for
// a partition.
func WriteTSV(path string, names seq.Seqs, res *Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, l := range PartitionLabels(res) {
		fmt.Fprintf(bw, "%s\t%d\n", names.FragName(i), l)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
