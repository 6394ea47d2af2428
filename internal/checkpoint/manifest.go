package checkpoint

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// FormatVersion is the on-disk checkpoint format. It participates in
// every scope hash, so a future incompatible format change invalidates
// old cells instead of misreading them.
const FormatVersion = 1

// Entry describes one stored cell in the manifest. Size and SHA256 are
// verified against the payload file on every Get: a cell that does not
// match its manifest record is quarantined, never returned.
type Entry struct {
	// Kind labels what the payload is ("dataset-fragment", "gbt-model",
	// "loop-result", ...). Purely informational: the key, not the kind,
	// identifies a cell.
	Kind string `json:"kind"`
	// Size is the payload length in bytes.
	Size int64 `json:"size"`
	// SHA256 is the lowercase hex digest of the payload.
	SHA256 string `json:"sha256"`
}

// Manifest is the validated index of a checkpoint directory. It is the
// only thing the store trusts: a payload file not listed here (or not
// matching its entry) is treated as garbage.
type Manifest struct {
	// Format must equal FormatVersion.
	Format int `json:"format"`
	// Scope is the hex campaign fingerprint the store is bound to, empty
	// until the first Bind.
	Scope string `json:"scope,omitempty"`
	// ScopeDesc is the human-readable campaign description recorded at
	// Bind time, for mismatch diagnostics.
	ScopeDesc string `json:"scope_desc,omitempty"`
	// Cells maps hex cell keys to their entries.
	Cells map[string]Entry `json:"cells"`
}

// LoadManifest parses and validates manifest bytes. It never panics,
// whatever the input: truncated, bit-flipped or unknown-field documents
// yield a descriptive error. Every error is wrapped in ErrCorrupt so
// callers can distinguish "corrupt checkpoint" from I/O failures.
func LoadManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: parsing manifest: %v", ErrCorrupt, err)
	}
	// A second document after the first is a sign of a torn or
	// concatenated write.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after manifest document", ErrCorrupt)
	}
	if m.Format != FormatVersion {
		return nil, fmt.Errorf("%w: manifest format %d, this build reads %d", ErrCorrupt, m.Format, FormatVersion)
	}
	if m.Scope != "" && !isHex(m.Scope, 64) {
		return nil, fmt.Errorf("%w: scope %q is not a 64-char hex digest", ErrCorrupt, m.Scope)
	}
	if m.Cells == nil {
		m.Cells = map[string]Entry{}
	}
	for key, e := range m.Cells {
		if !isHex(key, 64) {
			return nil, fmt.Errorf("%w: cell key %q is not a 64-char hex digest", ErrCorrupt, key)
		}
		if e.Size < 0 {
			return nil, fmt.Errorf("%w: cell %s has negative size %d", ErrCorrupt, key, e.Size)
		}
		if !isHex(e.SHA256, 64) {
			return nil, fmt.Errorf("%w: cell %s digest %q is not a 64-char hex digest", ErrCorrupt, key, e.SHA256)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("%w: cell %s has an empty kind", ErrCorrupt, key)
		}
	}
	return &m, nil
}

// encode renders the manifest deterministically (sorted keys, indented:
// the file is meant to be inspectable after a crash).
func (m *Manifest) encode() ([]byte, error) {
	// json.Marshal already sorts map keys; MarshalIndent keeps the file
	// diffable across resume passes.
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// isHex reports whether s is exactly n lowercase-decodable hex chars.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}
