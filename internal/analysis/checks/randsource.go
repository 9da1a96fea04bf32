package checks

import (
	"strconv"

	"repro/internal/analysis"
)

// randsourceBanned are the RNG packages whose default sources are either
// auto-seeded (math/rand since Go 1.20, math/rand/v2 always) or genuinely
// nondeterministic (crypto/rand). Simulation inputs must come from an
// explicitly seeded PRNG, like sim.Rand.
var randsourceBanned = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// Randsource flags imports of nondeterministic or globally seeded RNG
// packages in simulation code. The finding sits on the import line, so a
// suppression there covers every use in the file.
var Randsource = &analysis.Analyzer{
	Name:      "randsource",
	Doc:       "forbid math/rand and crypto/rand in simulation code; use a seeded deterministic PRNG (sim.Rand)",
	AppliesTo: inSimScope,
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !randsourceBanned[path] {
					continue
				}
				pass.Reportf(imp.Pos(),
					"import of %s in simulation code; draw inputs from an explicitly seeded deterministic PRNG (e.g. sim.Rand)",
					path)
			}
		}
	},
}
