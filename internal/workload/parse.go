package workload

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The CSV model format mirrors the layer files the GAMMA/DiGamma tooling
// consumes: one layer per row,
//
//	name,type,K,C,Y,X,R,S,strideY,strideX,count
//
// with type ∈ {CONV, DSCONV, GEMM} (case-insensitive). A header row is
// optional and detected by a non-numeric K column. Empty strideY/strideX
// default to 1, empty count to 1. Lines starting with '#' are comments.

// ParseCSV reads a model in the CSV layer format. The model name is
// supplied by the caller (usually the file name).
func ParseCSV(name string, r io.Reader) (Model, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	cr.TrimLeadingSpace = true

	m := Model{Name: name}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Model{}, fmt.Errorf("workload: %s: %w", name, err)
		}
		line++
		if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		if len(rec) < 8 {
			return Model{}, fmt.Errorf("workload: %s line %d: %d fields, need ≥ 8", name, line, len(rec))
		}
		// Header detection: the K column is not a number.
		if _, err := strconv.Atoi(strings.TrimSpace(rec[2])); err != nil && line == 1 {
			continue
		}
		l, err := parseLayerRecord(rec)
		if err != nil {
			return Model{}, fmt.Errorf("workload: %s line %d: %w", name, line, err)
		}
		m.Layers = append(m.Layers, l)
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

func parseLayerRecord(rec []string) (Layer, error) {
	get := func(i int, def int) (int, error) {
		if i >= len(rec) || strings.TrimSpace(rec[i]) == "" {
			return def, nil
		}
		v, err := strconv.Atoi(strings.TrimSpace(rec[i]))
		if err != nil {
			return 0, fmt.Errorf("field %d: %w", i, err)
		}
		return v, nil
	}
	var l Layer
	l.Name = strings.TrimSpace(rec[0])
	var err error
	if l.Type, err = ParseLayerType(rec[1]); err != nil {
		return Layer{}, err
	}
	if l.K, err = get(2, 0); err != nil {
		return Layer{}, err
	}
	if l.C, err = get(3, 0); err != nil {
		return Layer{}, err
	}
	if l.Y, err = get(4, 0); err != nil {
		return Layer{}, err
	}
	if l.X, err = get(5, 0); err != nil {
		return Layer{}, err
	}
	if l.R, err = get(6, 0); err != nil {
		return Layer{}, err
	}
	if l.S, err = get(7, 0); err != nil {
		return Layer{}, err
	}
	if l.StrideY, err = get(8, 1); err != nil {
		return Layer{}, err
	}
	if l.StrideX, err = get(9, 1); err != nil {
		return Layer{}, err
	}
	if l.Count, err = get(10, 1); err != nil {
		return Layer{}, err
	}
	return l, nil
}

// ParseLayerType resolves a layer-type name. Accepted spellings
// (case-insensitive): CONV/CONV2D, DSCONV/DWCONV/DEPTHWISE, GEMM/FC/LINEAR.
func ParseLayerType(s string) (LayerType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CONV", "CONV2D":
		return Conv, nil
	case "DSCONV", "DWCONV", "DEPTHWISE":
		return DepthwiseConv, nil
	case "GEMM", "FC", "LINEAR":
		return GEMM, nil
	default:
		return 0, fmt.Errorf("unknown layer type %q (want CONV, DSCONV or GEMM)", s)
	}
}

// LayerSpec is the wire form of one layer in the JSON model format —
// the shape API clients submit inline workloads in. Zero strideY/strideX
// and count default to 1.
type LayerSpec struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	K       int    `json:"k"`
	C       int    `json:"c"`
	Y       int    `json:"y"`
	X       int    `json:"x"`
	R       int    `json:"r"`
	S       int    `json:"s"`
	StrideY int    `json:"stride_y,omitempty"`
	StrideX int    `json:"stride_x,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// Layer materializes the spec, applying the stride/count defaults. The
// returned layer is not yet validated — Model.Validate (via FromSpecs)
// owns the dimension checks.
func (s LayerSpec) Layer() (Layer, error) {
	t, err := ParseLayerType(s.Type)
	if err != nil {
		return Layer{}, err
	}
	l := Layer{
		Name: strings.TrimSpace(s.Name), Type: t,
		K: s.K, C: s.C, Y: s.Y, X: s.X, R: s.R, S: s.S,
		StrideY: s.StrideY, StrideX: s.StrideX, Count: s.Count,
	}
	if l.StrideY == 0 {
		l.StrideY = 1
	}
	if l.StrideX == 0 {
		l.StrideX = 1
	}
	if l.Count == 0 {
		l.Count = 1
	}
	return l, nil
}

// Spec renders a layer back into its wire form (the WriteJSON/round-trip
// counterpart of LayerSpec.Layer).
func Spec(l Layer) LayerSpec {
	sy, sx := l.Strides()
	return LayerSpec{
		Name: l.Name, Type: l.Type.String(),
		K: l.K, C: l.C, Y: l.Y, X: l.X, R: l.R, S: l.S,
		StrideY: sy, StrideX: sx, Count: l.Multiplicity(),
	}
}

// FromSpecs assembles and validates a model from wire-form layers, with
// per-layer context on errors so API-submitted workloads fail usefully.
func FromSpecs(name string, specs []LayerSpec) (Model, error) {
	if len(specs) == 0 {
		return Model{}, fmt.Errorf("workload: %s: no layers", name)
	}
	m := Model{Name: name, Layers: make([]Layer, 0, len(specs))}
	for i, s := range specs {
		l, err := s.Layer()
		if err != nil {
			return Model{}, fmt.Errorf("workload: %s layer %d (%q): %w", name, i, s.Name, err)
		}
		m.Layers = append(m.Layers, l)
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// modelJSON is the JSON model document: {"name": ..., "layers": [...]}.
type modelJSON struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// ParseJSON reads a model in the JSON format. An in-document name wins
// over the caller-supplied fallback (usually the file name). Unknown
// fields and anything after the document are rejected so typos in
// hand-written workloads surface instead of silently defaulting.
func ParseJSON(name string, r io.Reader) (Model, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc modelJSON
	if err := dec.Decode(&doc); err != nil {
		return Model{}, fmt.Errorf("workload: %s: %w", name, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Model{}, fmt.Errorf("workload: %s: trailing data after the model document", name)
	}
	if doc.Name != "" {
		name = doc.Name
	}
	return FromSpecs(name, doc.Layers)
}

// WriteJSON renders a model in the JSON format (ParseJSON round-trips it).
func WriteJSON(w io.Writer, m Model) error {
	doc := modelJSON{Name: m.Name, Layers: make([]LayerSpec, len(m.Layers))}
	for i, l := range m.Layers {
		doc.Layers[i] = Spec(l)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV renders a model in the CSV layer format, including a header.
func WriteCSV(w io.Writer, m Model) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "type", "K", "C", "Y", "X", "R", "S", "strideY", "strideX", "count"}); err != nil {
		return err
	}
	for _, l := range m.Layers {
		sy, sx := l.Strides()
		rec := []string{
			l.Name, l.Type.String(),
			strconv.Itoa(l.K), strconv.Itoa(l.C), strconv.Itoa(l.Y), strconv.Itoa(l.X),
			strconv.Itoa(l.R), strconv.Itoa(l.S),
			strconv.Itoa(sy), strconv.Itoa(sx), strconv.Itoa(l.Multiplicity()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
