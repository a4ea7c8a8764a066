package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// printTable writes one metric set for people: name, value, unit and
// the sample count behind the value.
func printTable(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- %s\n", title)
	for _, name := range names {
		v := m[name]
		fmt.Fprintf(w, "  %-42s %14.4f %-8s n=%d\n", name, v.Value, v.Unit, v.N)
	}
}

// spanRecord is one line of the -spans file. An rpc span and its serve
// span share the id derived from (From, Corr); the serve span's parent
// is the rpc span, and an rpc span's parent is the operation that was
// alone in flight on the sending node, when one was.
type spanRecord struct {
	Workload    string  `json:"workload"`
	Span        string  `json:"span"` // "op", "rpc" or "serve"
	ID          string  `json:"id"`
	Parent      string  `json:"parent,omitempty"`
	Node        int     `json:"node"`
	Peer        *int    `json:"peer,omitempty"`
	Worker      *int    `json:"worker,omitempty"`
	Name        string  `json:"name"` // read|write for an op, kind(N) for rpc and serve
	DueUS       float64 `json:"due_us,omitempty"`
	StartUS     float64 `json:"start_us"`
	EndUS       float64 `json:"end_us"`
	OK          bool    `json:"ok"`
	Retransmits int     `json:"retransmits,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanWriter appends traced runs' spans to a JSONL file; with an empty
// path it discards them.
type spanWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func newSpanWriter(path string) (*spanWriter, error) {
	if path == "" {
		return &spanWriter{}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f, bw: bufio.NewWriter(f)}, nil
}

func (sw *spanWriter) write(workload string, r *runResult) error {
	if sw.f == nil {
		return nil
	}
	enc := json.NewEncoder(sw.bw)
	for _, s := range r.Drive.Done {
		name := "write"
		if s.Read {
			name = "read"
		}
		worker := s.Worker
		if err := enc.Encode(spanRecord{
			Workload: workload, Span: "op", ID: fmt.Sprintf("op/%d", s.ID), Node: s.Node, Worker: &worker,
			Name: name, DueUS: us(s.Due), StartUS: us(s.Start), EndUS: us(s.End), OK: s.OK,
		}); err != nil {
			return err
		}
	}
	for _, s := range r.Spans {
		id := fmt.Sprintf("rpc/%d/%d", s.From, s.Corr)
		from, to := int(s.From), int(s.To)
		rec := spanRecord{
			Workload: workload, Span: "rpc", ID: id, Node: from, Peer: &to, Name: s.Kind.String(),
			StartUS: us(s.ReqSent), EndUS: us(s.ReplyDelivered), OK: s.answered(), Retransmits: s.Retransmits,
		}
		if s.Op >= 0 {
			rec.Parent = fmt.Sprintf("op/%d", s.Op)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if s.ReqDelivered == 0 {
			continue
		}
		if err := enc.Encode(spanRecord{
			Workload: workload, Span: "serve", ID: id, Parent: id, Node: to, Peer: &from, Name: s.Kind.String(),
			StartUS: us(s.ReqDelivered), EndUS: us(s.ReplySent), OK: s.ReplySent != 0,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (sw *spanWriter) close() error {
	if sw.f == nil {
		return nil
	}
	if err := sw.bw.Flush(); err != nil {
		sw.f.Close()
		return err
	}
	return sw.f.Close()
}
