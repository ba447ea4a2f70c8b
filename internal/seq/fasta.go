package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Record is one FASTA record.
type Record struct {
	Name  string
	Bases []byte
}

// ReadFASTA parses all records from r. Sequence lines are concatenated;
// bases are canonicalized with Clean.
func ReadFASTA(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var recs []Record
	var cur *Record
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			recs = append(recs, Record{Name: string(bytes.TrimSpace(line[1:]))})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fasta: line %d: sequence data before first header", lineno)
		}
		cur.Bases = append(cur.Bases, Clean(line)...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	return recs, nil
}

// ReadFragments parses FASTA records from r into fragments.
func ReadFragments(r io.Reader) ([]*Fragment, error) {
	recs, err := ReadFASTA(r)
	if err != nil {
		return nil, err
	}
	frags := make([]*Fragment, len(recs))
	for i, rec := range recs {
		frags[i] = &Fragment{Name: rec.Name, Bases: rec.Bases}
	}
	return frags, nil
}

// ReadFragmentsFile parses the FASTA file at path into fragments; a
// parse error names the file.
func ReadFragmentsFile(path string) ([]*Fragment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	frags, err := ReadFragments(f)
	if err != nil {
		return nil, fmt.Errorf("malformed input %s: %w", path, err)
	}
	return frags, nil
}

// WriteFASTA writes records to w, wrapping sequence lines at width
// columns (60 if width ≤ 0).
func WriteFASTA(w io.Writer, recs []Record, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		for i := 0; i < len(rec.Bases); i += width {
			end := i + width
			if end > len(rec.Bases) {
				end = len(rec.Bases)
			}
			if _, err := bw.Write(rec.Bases[i:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
