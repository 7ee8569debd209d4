package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeOnly keeps the benchmark measuring the program from outside:
// no file under bench/ may import the module's internal packages.
func TestFacadeOnly(t *testing.T) {
	const internal = "github.com/shus-lab/hios/internal"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p == internal || strings.HasPrefix(p, internal+"/") {
				t.Errorf("%s imports %s; the benchmark may use only the public hios package", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
