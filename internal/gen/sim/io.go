package sim

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
)

// Dataset directory layout. The proxy log uses the compact binary codec;
// MME and UDR logs are gzip CSV.
const (
	metaFile  = "meta.json"
	mmeFile   = "mme.csv.gz"
	proxyFile = "proxy.bin.gz"
	udrFile   = "udr.csv.gz"
)

// Save writes the dataset's logs and configuration to a directory. The
// substrate (topology, device DB, catalogue, population) is not persisted:
// it regenerates deterministically from the config on Load.
func (ds *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(ds.Config, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
		return err
	}
	if err := createGzip(filepath.Join(dir, mmeFile), mme.WriteCSV, ds.MME.Records); err != nil {
		return fmt.Errorf("sim: writing MME log: %w", err)
	}
	if err := createGzip(filepath.Join(dir, proxyFile), proxylog.WriteBinary, ds.Proxy.Records); err != nil {
		return fmt.Errorf("sim: writing proxy log: %w", err)
	}
	if err := createGzip(filepath.Join(dir, udrFile), udr.WriteCSV, ds.UDR.Records); err != nil {
		return fmt.Errorf("sim: writing UDR log: %w", err)
	}
	return nil
}

// Load reads a dataset directory written by Save, rebuilding the
// deterministic substrate from the stored config and verifying the logs
// against it.
func Load(dir string) (*Dataset, error) {
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(meta, &cfg); err != nil {
		return nil, fmt.Errorf("sim: parsing %s: %w", metaFile, err)
	}
	// Rebuild substrate and ground truth only — regenerating the logs is
	// unnecessary; we read them from disk.
	ds, err := generateSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	if ds.MME.Records, err = openGzip(filepath.Join(dir, mmeFile), mme.ReadCSV); err != nil {
		return nil, fmt.Errorf("sim: reading MME log: %w", err)
	}
	if ds.Proxy.Records, err = openGzip(filepath.Join(dir, proxyFile), proxylog.ReadBinary); err != nil {
		return nil, fmt.Errorf("sim: reading proxy log: %w", err)
	}
	if ds.UDR.Records, err = openGzip(filepath.Join(dir, udrFile), udr.ReadCSV); err != nil {
		return nil, fmt.Errorf("sim: reading UDR log: %w", err)
	}
	return ds, nil
}

// createGzip writes records to a new gzip file at path with a codec's
// encoder.
func createGzip[T any](path string, write func(io.Writer, []T) error, records []T) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	gz := gzip.NewWriter(bw)
	if err := write(gz, records); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// openGzip decodes the gzip file at path with a codec's decoder,
// returning the gzip reader's Close error rather than dropping it.
func openGzip[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	records, err := read(gz)
	if err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return records, nil
}
