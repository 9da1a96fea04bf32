package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// harnessGolden pins the SHA-256 of each experiment's sequential rendering
// (text, CSV and JSON, as renderAll produces them) at the parameters of
// TestAllExperimentsDeterministicAndParallelSafe. A refactor that claims to
// keep every result the same must leave these unchanged; a model change that
// moves a number re-captures them and explains the shift.
var harnessGolden = map[string]string{
	"table3":            "b0f7f587b4689d9fdfad0adad035871b7ed56c9d984366fc5cb97238437524d1",
	"fig5":              "3215f97c2d8b1dd90783fb7ce9676bc4c7d45ef51d327ad04b30d2b25929ba3e",
	"fig6":              "6ad5e254ca3b3cd53c4df6dad42df679c14a2b63af9fb090376f1da7be2268c5",
	"fig7":              "9fa19a9b46e7bd4fa9c10dd5c7260b29b2333d7a6f4cd8e1f5f6058a65f9be2d",
	"fig8":              "91e7fea2da89600fc01cb529ec7fa18b855c41cc55d7c744cfe789d671c4dd79",
	"fig9":              "4255e7db160a1a99af4894cb704be31902a35e7d40ec9333cdcb7a92cafb7167",
	"fig10":             "839e74db448756fcc209d0e2314efa1251177751afdaf6e986af63ad0a95364c",
	"fig11":             "0c39252324533a4ec6a265c54bed2ad5d0bd992289f0b93f526fd46a9dcde353",
	"table5":            "f6489cc1c9960977b9908ce2fb31b90ca9c4d84d13eeb6174a9248e5938252f0",
	"cpuschemes":        "f41971871226a0d91755e0cf7d515b3a4c80d18dc5a146889896ac0bc0875ccc",
	"serve_latency":     "e4b27be3a04a2bc4c296346c5c7760038742b07864f1ea1cd231356f3fa0b17c",
	"serve_capacity":    "629dd60553795ac7c70d195619a0bc7902c7749ab300c8a730b2bbc212e94040",
	"tenant_qos":        "0877d145681f9bda2070d315f3384f2f171d54b37a06e6c54c26e1f3b939cdaa",
	"oversub_sweep":     "c63737c4ebf159a3fe7637653e4a189cd01c44d489721974fc1ed26cc3716c8a",
	"cluster_scaling":   "9691c13c66dfea7d16678a2c8a2e113e4e9f5722c0be070cf00a97b7fcff4a4f",
	"cluster_policy":    "a246bd56353067fa9e4f479a24c329b059a7fb68ff12d16042fd24ec4227e4e9",
	"cluster_autoscale": "a9f07f73c352778caa90da98b5f5c52493b486d3578bcde844180bb5e02cfbb1",
}

// renderAll renders a report in every supported encoding; any nondeterminism
// in rows, Values or notes shows up as a byte difference.
func renderAll(t *testing.T, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	r.Fprint(&buf)
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAllExperimentsDeterministicAndParallelSafe runs EVERY experiment ID
// three times — twice with the sequential cell order (Parallel=1) and once on
// a 4-wide worker pool — and requires byte-identical rendered output across
// all three, and the sequential rendering must match its committed digest
// in harnessGolden. The double run catches state leaking between runs (extending
// runners' TestDoubleRunDeterminism to the whole harness); the parallel run
// is the committed guarantee that the cell scheduler never changes results.
// Under `go test -race` (make check) this is also the data-race probe for
// the parallel sweep path.
func TestAllExperimentsDeterministicAndParallelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			p := Params{Tasks: 48, SMMs: 4, Seed: 1, Parallel: 1, Misbehave: 1}
			run := func(p Params) []byte {
				rep, err := Run(id, p)
				if err != nil {
					t.Fatal(err)
				}
				return renderAll(t, rep)
			}
			seq1 := run(p)
			sum := sha256.Sum256(seq1)
			if got := hex.EncodeToString(sum[:]); got != harnessGolden[id] {
				t.Errorf("%s: rendering digest %q, want %q", id, got, harnessGolden[id])
			}
			seq2 := run(p)
			p.Parallel = 4
			par := run(p)
			if !bytes.Equal(seq1, seq2) {
				t.Errorf("%s: double sequential run differs (state leaks between runs)", id)
			}
			if !bytes.Equal(seq1, par) {
				t.Errorf("%s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, seq1, par)
			}
		})
	}
}
