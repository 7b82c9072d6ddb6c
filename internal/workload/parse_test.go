package workload

import (
	"bytes"
	"strings"
	"testing"
)

const sampleCSV = `name,type,K,C,Y,X,R,S,strideY,strideX,count
conv1,CONV,64,3,112,112,7,7,2,2,1
# a comment line
block.dw,DSCONV,96,1,56,56,3,3,,,2
fc,GEMM,1000,512,1,1,1,1,1,1,1
`

func TestParseCSV(t *testing.T) {
	m, err := ParseCSV("sample", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 3 {
		t.Fatalf("%d layers, want 3", len(m.Layers))
	}
	c1 := m.Layers[0]
	if c1.Type != Conv || c1.K != 64 || c1.StrideY != 2 {
		t.Errorf("conv1 parsed as %+v", c1)
	}
	dw := m.Layers[1]
	if dw.Type != DepthwiseConv || dw.Multiplicity() != 2 {
		t.Errorf("dw parsed as %+v", dw)
	}
	sy, sx := dw.Strides()
	if sy != 1 || sx != 1 {
		t.Errorf("empty strides defaulted to %d,%d", sy, sx)
	}
	if m.Layers[2].Type != GEMM {
		t.Errorf("fc type = %v", m.Layers[2].Type)
	}
}

func TestParseCSVWithoutHeader(t *testing.T) {
	m, err := ParseCSV("nohdr", strings.NewReader("l1,CONV,8,8,8,8,3,3,1,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 1 || m.Layers[0].K != 8 {
		t.Errorf("parsed %+v", m.Layers)
	}
}

func TestParseCSVTypeAliases(t *testing.T) {
	src := "a,conv2d,8,8,8,8,3,3\nb,dwconv,8,1,8,8,3,3\nc,linear,8,8,1,1,1,1\n"
	m, err := ParseCSV("alias", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []LayerType{Conv, DepthwiseConv, GEMM}
	for i, l := range m.Layers {
		if l.Type != want[i] {
			t.Errorf("layer %d type = %v, want %v", i, l.Type, want[i])
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := map[string]string{
		"short row": "a,CONV,8,8\n",
		"bad type":  "a,POOL,8,8,8,8,3,3\n",
		// A non-numeric K on line 1 reads as a header; line 2+ must error.
		"bad number":     "a,CONV,8,8,8,8,3,3\nb,CONV,x,8,8,8,3,3\n",
		"invalid layer":  "a,CONV,0,8,8,8,3,3\n",
		"empty":          "",
		"dsconv with C2": "a,DSCONV,8,2,8,8,3,3\n",
	}
	for name, src := range cases {
		if _, err := ParseCSV("bad", strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseCSVErrorMessages(t *testing.T) {
	// Errors must carry the model name and line number so API users can
	// find the bad row.
	_, err := ParseCSV("mymodel", strings.NewReader("a,CONV,8,8,8,8,3,3\nb,POOL,8,8,8,8,3,3\n"))
	if err == nil {
		t.Fatal("accepted bad type")
	}
	for _, want := range []string{"mymodel", "line 2", "POOL"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestParseLayerType(t *testing.T) {
	good := map[string]LayerType{
		"CONV": Conv, "conv2d": Conv, " Conv ": Conv,
		"DSCONV": DepthwiseConv, "depthwise": DepthwiseConv,
		"GEMM": GEMM, "fc": GEMM, "LINEAR": GEMM,
	}
	for s, want := range good {
		got, err := ParseLayerType(s)
		if err != nil || got != want {
			t.Errorf("ParseLayerType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "POOL", "CONV3D"} {
		if _, err := ParseLayerType(s); err == nil {
			t.Errorf("ParseLayerType(%q) accepted", s)
		}
	}
}

const sampleJSON = `{
  "name": "tiny",
  "layers": [
    {"name": "c1", "type": "CONV", "k": 64, "c": 3, "y": 112, "x": 112, "r": 7, "s": 7, "stride_y": 2, "stride_x": 2},
    {"name": "dw", "type": "DSCONV", "k": 96, "c": 1, "y": 56, "x": 56, "r": 3, "s": 3, "count": 2},
    {"name": "fc", "type": "GEMM", "k": 1000, "c": 512, "y": 1, "x": 1, "r": 1, "s": 1}
  ]
}`

func TestParseJSON(t *testing.T) {
	m, err := ParseJSON("fallback", strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "tiny" {
		t.Errorf("in-document name lost: %q", m.Name)
	}
	if len(m.Layers) != 3 {
		t.Fatalf("%d layers", len(m.Layers))
	}
	if c1 := m.Layers[0]; c1.Type != Conv || c1.StrideY != 2 {
		t.Errorf("c1 = %+v", c1)
	}
	// Omitted strides and count default to 1 (2 for dw's explicit count).
	dw := m.Layers[1]
	sy, sx := dw.Strides()
	if sy != 1 || sx != 1 || dw.Multiplicity() != 2 {
		t.Errorf("dw defaults: strides %d,%d count %d", sy, sx, dw.Multiplicity())
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := map[string]struct{ src, detail string }{
		"not json":       {`layers: [`, ""},
		"no layers":      {`{"name": "empty", "layers": []}`, "no layers"},
		"missing layers": {`{"name": "empty"}`, "no layers"},
		"unknown field":  {`{"name": "m", "layesr": []}`, "layesr"},
		"bad layer type": {`{"layers": [{"name": "p", "type": "POOL", "k": 8, "c": 8, "y": 8, "x": 8, "r": 3, "s": 3}]}`, `"p"`},
		"zero dim":       {`{"layers": [{"name": "z", "type": "CONV", "k": 0, "c": 8, "y": 8, "x": 8, "r": 3, "s": 3}]}`, ""},
		"dsconv with C":  {`{"layers": [{"name": "d", "type": "DSCONV", "k": 8, "c": 2, "y": 8, "x": 8, "r": 3, "s": 3}]}`, ""},
		"gemm with R":    {`{"layers": [{"name": "g", "type": "GEMM", "k": 8, "c": 8, "y": 8, "x": 1, "r": 3, "s": 1}]}`, ""},
		"trailing data":  {`{"layers": [{"name": "g", "type": "GEMM", "k": 8, "c": 8, "y": 8, "x": 1, "r": 1, "s": 1}]} {"extra": true}`, "trailing data"},
		"negative count": {`{"layers": [{"name": "n", "type": "CONV", "k": 8, "c": 8, "y": 8, "x": 8, "r": 3, "s": 3, "count": -2}]}`, "negative count"},
	}
	for name, tc := range cases {
		_, err := ParseJSON("bad", strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if tc.detail != "" && !strings.Contains(err.Error(), tc.detail) {
			t.Errorf("%s: error %q missing %q", name, err, tc.detail)
		}
	}
}

func TestFromSpecsErrors(t *testing.T) {
	if _, err := FromSpecs("empty", nil); err == nil {
		t.Error("empty spec list accepted")
	}
	_, err := FromSpecs("m", []LayerSpec{
		{Name: "ok", Type: "CONV", K: 8, C: 8, Y: 8, X: 8, R: 3, S: 3},
		{Name: "bad", Type: "POOL", K: 8, C: 8, Y: 8, X: 8, R: 3, S: 3},
	})
	if err == nil {
		t.Fatal("bad layer accepted")
	}
	// The error names the model, the layer index and the layer.
	for _, want := range []string{"m", "layer 1", "bad", "POOL"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestJSONRoundTripZoo(t *testing.T) {
	for _, m := range Zoo() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, m); err != nil {
			t.Fatalf("%s: write: %v", m.Name, err)
		}
		back, err := ParseJSON("fallback", &buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		if back.Name != m.Name {
			t.Errorf("name %q != %q after round trip", back.Name, m.Name)
		}
		if len(back.Layers) != len(m.Layers) || back.MACs() != m.MACs() {
			t.Fatalf("%s: %d layers / %d MACs back, want %d / %d",
				m.Name, len(back.Layers), back.MACs(), len(m.Layers), m.MACs())
		}
		// Zoo layers leave defaultable fields zero (the accessors fill
		// them in), so compare semantics, not struct bytes.
		for i := range back.Layers {
			a, b := back.Layers[i], m.Layers[i]
			asy, asx := a.Strides()
			bsy, bsx := b.Strides()
			if a.Name != b.Name || a.Type != b.Type || a.Dims() != b.Dims() ||
				asy != bsy || asx != bsx || a.Multiplicity() != b.Multiplicity() {
				t.Errorf("%s layer %d changed: %+v != %+v", m.Name, i, a, b)
			}
		}
	}
}

func TestCSVRoundTripZoo(t *testing.T) {
	for _, m := range Zoo() {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatalf("%s: write: %v", m.Name, err)
		}
		back, err := ParseCSV(m.Name, &buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		if len(back.Layers) != len(m.Layers) {
			t.Fatalf("%s: %d layers back, want %d", m.Name, len(back.Layers), len(m.Layers))
		}
		if back.MACs() != m.MACs() {
			t.Errorf("%s: MACs %d != %d after round trip", m.Name, back.MACs(), m.MACs())
		}
		for i := range back.Layers {
			if back.Layers[i].Dims() != m.Layers[i].Dims() {
				t.Errorf("%s layer %d dims changed", m.Name, i)
			}
			if back.Layers[i].Multiplicity() != m.Layers[i].Multiplicity() {
				t.Errorf("%s layer %d count changed", m.Name, i)
			}
		}
	}
}
