// Structural checks on the hot planes: which packages their source files may
// import. A forbidden import here is a performance regression long before a
// benchmark shows it — reflection on a per-frame path, a clock read or an
// allocation size class per message — so it fails tier-1 instead.
package aas_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestImportPurity(t *testing.T) {
	planes := []struct {
		name   string
		files  []string // glob patterns; _test.go files are skipped
		forbid []string
		why    string
	}{
		{
			name:   "wire",
			files:  []string{"internal/wire/*.go"},
			forbid: []string{"reflect", "encoding/gob"},
			why:    "the wire codec and the typed codecs derived from it are hand-rolled and reflection-free (DESIGN.md §8)",
		},
		{
			name: "elastic",
			files: []string{"internal/cluster/membership.go", "internal/cluster/placement.go",
				"internal/cluster/replicate.go", "internal/cluster/egress.go", "internal/cluster/peer.go"},
			forbid: []string{"reflect", "encoding/gob", "encoding/json"},
			why:    "gossip rides every beacon of every link and replicate frames carry whole snapshots; both stay on the wire codec (DESIGN.md §12)",
		},
		{
			name: "deadline",
			files: []string{"internal/bus/edf.go", "internal/qos/admission.go",
				"internal/qos/credit.go", "internal/core/stream.go"},
			forbid: []string{"time"},
			why:    "the EDF lane, the admission estimator, the credit window and the stream consumer work in int64 nanoseconds like bus.Message.Deadline; a time.Time there costs an allocation size class per message (DESIGN.md §9, §10)",
		},
		{
			name:   "telemetry",
			files:  []string{"internal/telemetry/trace.go", "internal/telemetry/recorder.go"},
			forbid: []string{"time", "fmt"},
			why:    "the span record path is a handful of word stores; timestamps arrive as int64 nanoseconds and nothing is formatted (DESIGN.md §11)",
		},
	}
	fset := token.NewFileSet()
	for _, plane := range planes {
		checked := 0
		for _, pattern := range plane.files {
			paths, err := filepath.Glob(pattern)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				if strings.HasSuffix(path, "_test.go") {
					continue
				}
				checked++
				f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, imp := range f.Imports {
					pkg, _ := strconv.Unquote(imp.Path.Value)
					for _, bad := range plane.forbid {
						if pkg == bad {
							t.Errorf("%s plane: %s imports %q — %s", plane.name, path, pkg, plane.why)
						}
					}
				}
			}
		}
		// A renamed file must not turn its check into a silent no-op.
		if checked < len(plane.files) {
			t.Errorf("%s plane: %d patterns matched only %d files", plane.name, len(plane.files), checked)
		}
	}
}
