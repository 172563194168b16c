package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Params serializes to plain JSON with SI values; this file adds the
// checked load/save helpers the CLI tools use so that process descriptions
// can be versioned alongside designs.

// ReadParams decodes a parameter set from JSON. Unknown fields are
// rejected (catching typos in hand-written process files), missing fields
// default to the Table I baseline, and the result is validated before
// being returned.
func ReadParams(r io.Reader) (Params, error) {
	return DecodeParams(Baseline(), r)
}

// DecodeParams decodes a partial parameter set from JSON over the given
// defaults: named fields override, unnamed fields keep the default value,
// unknown fields are rejected, and the merged result is validated. This
// is the decode path shared by the CLI config loaders (defaults =
// Baseline) and the service layer (defaults = the daemon's configured
// process). The defaults are never written: a named "layout" replaces
// the defaults' pad layout whole ("layout": null clears it), and an
// unnamed one keeps it.
func DecodeParams(defaults Params, r io.Reader) (Params, error) {
	p := defaults
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var err error
	if p.PadLayout == nil {
		err = dec.Decode(&p)
	} else {
		err = decodeOverLayout(dec, &p)
	}
	if err != nil {
		return Params{}, fmt.Errorf("core: decode params: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("core: loaded params invalid: %w", err)
	}
	return p, nil
}

// decodeOverLayout decodes into p while p.PadLayout still points at the
// defaults' layout. Decoding straight into p would write a named layout
// into that shared Layout and reuse its Regions array, so a request region
// would keep every field it omits from the default region at its index.
// The layout is captured raw instead and decoded into a fresh Layout.
func decodeOverLayout(dec *json.Decoder, p *Params) error {
	var wire struct {
		*Params
		Layout json.RawMessage `json:"layout"` // shadows Params.PadLayout
	}
	wire.Params = p
	if err := dec.Decode(&wire); err != nil {
		return err
	}
	if wire.Layout == nil {
		return nil
	}
	p.PadLayout = nil
	ld := json.NewDecoder(bytes.NewReader(wire.Layout))
	ld.DisallowUnknownFields()
	return ld.Decode(&p.PadLayout)
}

// LoadParams reads a parameter set from a JSON file. Decode and
// validation failures carry the file path so CLI and service error text
// names the offending config.
func LoadParams(path string) (Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return Params{}, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	p, err := ReadParams(f)
	if err != nil {
		return Params{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// WriteParams encodes the parameter set as indented JSON.
func (p Params) WriteParams(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("core: encode params: %w", err)
	}
	return nil
}

// SaveParams writes the parameter set to a JSON file.
func (p Params) SaveParams(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := p.WriteParams(f); err != nil {
		return err
	}
	return f.Close()
}
