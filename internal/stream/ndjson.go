package stream

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"tdnstream/internal/ids"
)

// NDJSON interchange: one JSON object per line,
//
//	{"src":"alice","dst":"bob","t":17}
//
// with string node labels like the CSV format. "t" may be omitted for
// producers feeding an arrival-clocked consumer (the serving layer's
// "arrival" time mode assigns server-side step numbers); it defaults to 0.

// RecordReader yields raw interaction records one at a time, so consumers
// (the serving layer's ingest path, the CLIs) can process unbounded bodies
// incrementally instead of materializing whole files. Read returns io.EOF
// at a clean end of input; src and dst are only valid until the next call.
type RecordReader interface {
	Read() (src, dst string, t int64, err error)
}

// ndjsonReader decodes NDJSON records line by line.
type ndjsonReader struct {
	sc   *bufio.Scanner
	line int
}

// NewNDJSONReader returns a RecordReader over NDJSON input. Blank lines
// are skipped; lines may be up to 1 MiB. The line buffer starts small and
// grows only as long lines need it.
func NewNDJSONReader(r io.Reader) RecordReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	return &ndjsonReader{sc: sc}
}

// ndjsonRow is the wire form of one NDJSON record.
type ndjsonRow struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	T   int64  `json:"t"`
}

func (n *ndjsonReader) Read() (string, string, int64, error) {
	for n.sc.Scan() {
		n.line++
		raw := bytes.TrimSpace(n.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var row ndjsonRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return "", "", 0, fmt.Errorf("stream: ndjson line %d: %w", n.line, err)
		}
		if row.Src == "" || row.Dst == "" {
			return "", "", 0, fmt.Errorf("stream: ndjson line %d: src and dst are required", n.line)
		}
		return row.Src, row.Dst, row.T, nil
	}
	if err := n.sc.Err(); err != nil {
		return "", "", 0, fmt.Errorf("stream: ndjson line %d: %w", n.line+1, err)
	}
	return "", "", 0, io.EOF
}

// csvReader decodes "src,dst,t" records.
type csvReader struct {
	cr   *csv.Reader
	line int
}

// NewCSVReader returns a RecordReader over "src,dst,t" CSV input.
func NewCSVReader(r io.Reader) RecordReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true
	return &csvReader{cr: cr}
}

func (c *csvReader) Read() (string, string, int64, error) {
	rec, err := c.cr.Read()
	if err == io.EOF {
		return "", "", 0, io.EOF
	}
	if err != nil {
		return "", "", 0, fmt.Errorf("stream: read csv: %w", err)
	}
	c.line++
	t, err := strconv.ParseInt(rec[2], 10, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("stream: line %d: bad timestamp %q: %w", c.line, rec[2], err)
	}
	return rec[0], rec[1], t, nil
}

// readAll drains a RecordReader into a validated interaction slice,
// interning labels through dict.
func readAll(rr RecordReader, dict *ids.Dict) ([]Interaction, error) {
	var out []Interaction
	for {
		src, dst, t, err := rr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		x := Interaction{Src: dict.ID(src), Dst: dict.ID(dst), T: t}
		if err := x.Validate(); err != nil {
			return nil, fmt.Errorf("stream: record %d: %w", len(out)+1, err)
		}
		out = append(out, x)
	}
}

// ReadNDJSON parses NDJSON interaction records, interning labels in dict.
// Self-loop records are rejected.
func ReadNDJSON(r io.Reader, dict *ids.Dict) ([]Interaction, error) {
	return readAll(NewNDJSONReader(r), dict)
}

// WriteNDJSON encodes interactions as NDJSON records using the string
// labels from dict (or raw numeric ids when dict is nil).
func WriteNDJSON(w io.Writer, in []Interaction, dict *ids.Dict) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, x := range in {
		var row ndjsonRow
		if dict != nil {
			row.Src = dict.Name(x.Src)
			row.Dst = dict.Name(x.Dst)
		} else {
			row.Src = strconv.FormatUint(uint64(x.Src), 10)
			row.Dst = strconv.FormatUint(uint64(x.Dst), 10)
		}
		row.T = x.T
		if err := enc.Encode(row); err != nil {
			return fmt.Errorf("stream: write ndjson: %w", err)
		}
	}
	return bw.Flush()
}
