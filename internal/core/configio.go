package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Config serialization: a run's full specification can be saved to JSON
// and reloaded later, so experiments are reproducible from a single file
// (cmd/alloysim's -config / -saveconfig flags). Generators are runtime
// objects and are deliberately not serialized; captured traces serve that
// role (cmd/tracegen).

// MarshalJSON-friendly view: Config is all plain data except Generators.
type configJSON struct {
	Config
	// Shadow the unserializable field.
	Generators interface{} `json:"Generators,omitempty"`
	// Accept and ignore the key of an execution knob that earlier
	// versions serialized (it never affected results), so their saved
	// configs still load under DisallowUnknownFields.
	Removed interface{} `json:"Shards,omitempty"`
}

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	cfg.Generators = nil
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(configJSON{Config: cfg})
}

// LoadConfig parses a configuration saved by SaveConfig and validates it.
func LoadConfig(r io.Reader) (Config, error) {
	var cj configJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cj); err != nil {
		return Config{}, fmt.Errorf("core: parsing config: %w", err)
	}
	cfg := cj.Config
	cfg.Generators = nil
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Fingerprint returns a short stable hash over the run-defining
// parameters. Generators (runtime state) are excluded. Run manifests
// record it so any results file can be matched against the exact
// configuration that produced it.
func (c Config) Fingerprint() string {
	c.Generators = nil
	data, err := json.Marshal(configJSON{Config: c})
	if err != nil {
		// Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("core: fingerprinting config: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("cfg-%x", sum[:8])
}

// SaveConfigFile writes the configuration to a file path.
func SaveConfigFile(path string, cfg Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveConfig(f, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadConfigFile reads a configuration from a file path.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return LoadConfig(f)
}
