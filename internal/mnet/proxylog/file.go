package proxylog

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteFile writes records to a file. The format is chosen by extension:
// ".csv" or ".bin", optionally followed by ".gz" for gzip compression.
func WriteFile(path string, records []Record) (err error) {
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
	var w io.Writer = bw
	var gz *gzip.Writer
	name := path
	if strings.HasSuffix(name, ".gz") {
		gz = gzip.NewWriter(bw)
		w = gz
		name = strings.TrimSuffix(name, ".gz")
	}
	switch {
	case strings.HasSuffix(name, ".csv"):
		err = WriteCSV(w, records)
	case strings.HasSuffix(name, ".bin"):
		err = WriteBinary(w, records)
	default:
		err = fmt.Errorf("proxylog: unknown log extension in %q", path)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}
