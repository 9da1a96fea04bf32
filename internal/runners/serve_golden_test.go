package runners

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// serveGoldenDigests pins every serving path's exact output as SHA-256
// digests: the open loop per scheme under each admission shape, fixed fleets
// of 1 and 3 nodes under every routing policy, and one elastic run. Keys are
// mode/scheme/variant. Like TestDeterminismGolden, a change that moves any
// of these is a model change and needs the digests re-captured and the shift
// explained.
var serveGoldenDigests = map[string]string{
	"openloop/hyperq/none":     "caef0f89d4d4e92aa071daea79b03e6b05ed8a17b64f83001d6bf51105d01fb4",
	"openloop/hyperq/queue6":   "bb1ead39cfea050f52aa181fbc0c74ecb2616aa784d9ef5ae9e7958474955ef9",
	"openloop/hyperq/token":    "dcab1d34eb60264f40a36bccd1a24cf4515faa1b0203eb749178fad4b7c5ce7f",
	"openloop/hyperq/strict":   "4ca2c9fdb0cb084fc117b05f8687599c088b0dd9f5849ae9776b1899dd3a8876",
	"openloop/hyperq/wfq":      "26090bbe11681f4e483afe4222bcbb9b9b129f6d40dd9d170157383e569b8294",
	"fleet/hyperq/n1/rr":       "db89044da6803ff87e5b8d3194d6fa0f1bc5b2481a577239f80a735e5e4c95c3",
	"fleet/hyperq/n1/least":    "db89044da6803ff87e5b8d3194d6fa0f1bc5b2481a577239f80a735e5e4c95c3",
	"fleet/hyperq/n1/jsq":      "db89044da6803ff87e5b8d3194d6fa0f1bc5b2481a577239f80a735e5e4c95c3",
	"fleet/hyperq/n1/p2c":      "db89044da6803ff87e5b8d3194d6fa0f1bc5b2481a577239f80a735e5e4c95c3",
	"fleet/hyperq/n1/affinity": "db89044da6803ff87e5b8d3194d6fa0f1bc5b2481a577239f80a735e5e4c95c3",
	"fleet/hyperq/n3/rr":       "f44bfa4cead5323045193f26c9fb1737f8486eee5941b801d6b8379e0750c82f",
	"fleet/hyperq/n3/least":    "fb62ffb0d2652d4d98affdcae717333041fe05b4cc8fbb719437e696840343e6",
	"fleet/hyperq/n3/jsq":      "1f423727063943ad449adcd9f9720147d70e604443e15ff69387b7d74eef897c",
	"fleet/hyperq/n3/p2c":      "ea6230b3c39596b4253838de4c5e85fdaf393039fcd76d5f15ebcd321d7c81e2",
	"fleet/hyperq/n3/affinity": "58291a280231f7632d956ced30bdb5620cab886376095ba15598baee8bf831f6",
	"elastic/hyperq":           "86d9cad635c6a6b465fd5c80f1a998a56dba0a1911ab90c592bc97e3e054e647",
	"openloop/gemtc/none":      "ccc290be842d2d363d31af0123ce44b1f6ba86e7a8a74edeffe08b1d03c7e78b",
	"openloop/gemtc/queue6":    "eec57d9c498d605e2f1e319d27ca334c6fd56009c45a7434c4fbd6768df8f3fe",
	"openloop/gemtc/token":     "72e96b26140ff8cc5240be829ce854465b13358ecc46533699bedc2a4e76f57c",
	"openloop/gemtc/strict":    "d8d7cc1616ded566fef65a4630aa333d929353320170bf537c0561c9361587df",
	"openloop/gemtc/wfq":       "915921f3c55124f0c0347c27aff0e75ccff8167c32f024172f9807eb7f42c393",
	"fleet/gemtc/n1/rr":        "2f4f4c4f6ae63b77b165160b465d0ac3affc686e270d833803c4b366e1870703",
	"fleet/gemtc/n1/least":     "2f4f4c4f6ae63b77b165160b465d0ac3affc686e270d833803c4b366e1870703",
	"fleet/gemtc/n1/jsq":       "2f4f4c4f6ae63b77b165160b465d0ac3affc686e270d833803c4b366e1870703",
	"fleet/gemtc/n1/p2c":       "2f4f4c4f6ae63b77b165160b465d0ac3affc686e270d833803c4b366e1870703",
	"fleet/gemtc/n1/affinity":  "2f4f4c4f6ae63b77b165160b465d0ac3affc686e270d833803c4b366e1870703",
	"fleet/gemtc/n3/rr":        "56ea9dc697671e5a9b3448f4666d6828aeb3965033ae1751343cc91ca837241d",
	"fleet/gemtc/n3/least":     "04a67de401d409895b3fc45751f31d7b6e3cdec42b0025182af4a36e07a3b2f8",
	"fleet/gemtc/n3/jsq":       "85b2292a4f0f5fb28a06b3825fd7c0f2421fed6d4fb06a01e8452b4cfaefd900",
	"fleet/gemtc/n3/p2c":       "7521755ef0a968c804d1132d4c0ef5b7b87df80a91c29f7f7e2dceac772fa313",
	"fleet/gemtc/n3/affinity":  "065fd8968ba718a04203bd49ef1679dd81a84688ed2326b47c76e31351a61ddb",
	"elastic/gemtc":            "0a04dcbdf5e1227cc2ac45fcbba782edb63e56a668fc4395be780e77790984b0",
	"openloop/pagoda/none":     "aa539e55ad6b85d05bf7e8af3b823f968dfb01f91d75214870b1e0e15d6a7401",
	"openloop/pagoda/queue6":   "065c0f2cae18d28252659c86c964564cb12476a0ab49fbef35af99212c853d40",
	"openloop/pagoda/token":    "8326fa253c992933c81c520675c3e86784e98d97354d7a22c99235607d27be3f",
	"openloop/pagoda/strict":   "fe690094198d428ab7fa220f999009de5670253f1ceef6b908aeb50990709cd5",
	"openloop/pagoda/wfq":      "e121645a2bd952f041793a7c73efe15829b6e089e52a48a89c9ac9b57c72b8fb",
	"fleet/pagoda/n1/rr":       "95294bd04ae3762a113c6c8edca3abbe031facbda41698386dd0b4413991b170",
	"fleet/pagoda/n1/least":    "95294bd04ae3762a113c6c8edca3abbe031facbda41698386dd0b4413991b170",
	"fleet/pagoda/n1/jsq":      "95294bd04ae3762a113c6c8edca3abbe031facbda41698386dd0b4413991b170",
	"fleet/pagoda/n1/p2c":      "95294bd04ae3762a113c6c8edca3abbe031facbda41698386dd0b4413991b170",
	"fleet/pagoda/n1/affinity": "95294bd04ae3762a113c6c8edca3abbe031facbda41698386dd0b4413991b170",
	"fleet/pagoda/n3/rr":       "fe5f789f0f04e2316b15403401f747facf3734f53787d55516795e676de0debe",
	"fleet/pagoda/n3/least":    "432502fc9960c6d648cd82f3887cec8fbf873477eaa81ab71196e68350aaf4d3",
	"fleet/pagoda/n3/jsq":      "63827a8c86107e5c2efab5112bd3409bdee4a469878d8a7d0999cef2016a7e2f",
	"fleet/pagoda/n3/p2c":      "632e791566aacc130deeac1ae42570184a007f7c5f603c200655519f5a85cd3d",
	"fleet/pagoda/n3/affinity": "f65b9cba1188284fd00fa7af3f96ca5dc3698672747979e920b8cffb063d7ec7",
	"elastic/pagoda":           "1c7ef809b561366c7a5254bdd8f4fde1e15824475cf0bad6587943a24ccf463d",
	"openloop/zorua/none":      "79103c40d425dad75791d0f8516bce1f66aaa87ed1bf26b3ad1e3efd32a1d6c6",
	"openloop/zorua/queue6":    "d72bb06444c2a9b89758fbcac82bdc766f6fe1ae17ebc7c7e0620ff7c69ffaa7",
	"openloop/zorua/token":     "db439533a1f71edb895c5d76338abe6e11a93afb438543f0dbef5c4b96305722",
	"openloop/zorua/strict":    "913fa464a0b4455c5d8c4069ef80bea8bfb40afc7c882fd66268bbf5d4bec76c",
	"openloop/zorua/wfq":       "de4bb979b0fb49d9b1e1a1c403ef622499b6115ff9216badaf8f760b19e24651",
	"fleet/zorua/n1/rr":        "76f52d5a2304e29bb79a9e89999ebf798f2915b25c0e1d4bc8df4c5c83b99315",
	"fleet/zorua/n1/least":     "76f52d5a2304e29bb79a9e89999ebf798f2915b25c0e1d4bc8df4c5c83b99315",
	"fleet/zorua/n1/jsq":       "76f52d5a2304e29bb79a9e89999ebf798f2915b25c0e1d4bc8df4c5c83b99315",
	"fleet/zorua/n1/p2c":       "76f52d5a2304e29bb79a9e89999ebf798f2915b25c0e1d4bc8df4c5c83b99315",
	"fleet/zorua/n1/affinity":  "76f52d5a2304e29bb79a9e89999ebf798f2915b25c0e1d4bc8df4c5c83b99315",
	"fleet/zorua/n3/rr":        "cf91d6d90e6b36e12d1ad1ec1a656365653ac438da300eb96bf51e340a0d2406",
	"fleet/zorua/n3/least":     "96fc4ce7eb824b7c4ac017882bdf3be920b79f69da0b484a33127957a0761b5a",
	"fleet/zorua/n3/jsq":       "07dcc1ab4184300c552fdccaa67dc6994c0768fd278d753597592e7cd1fd569b",
	"fleet/zorua/n3/p2c":       "471a23c41280e316a74a34f63509cd4a5da31a883b71ec3f901e13f810927869",
	"fleet/zorua/n3/affinity":  "7b3f530554dc3f4cb2b88c2ba1d6494c4b62b16c878a6805f03aedb7d6ee0a9e",
	"elastic/zorua":            "2755273158870f657f8514ac66332e7616cc66b3b4e3b39cd41ab3fd3c1e9c92",
}

// digestf folds values into h in their %+v form; floats print in shortest
// round-trip form, so equal text means bit-equal values.
func digestf(h hash.Hash, vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(h, "%+v;", v)
	}
}

func checkServeGolden(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := serveGoldenDigests[key]
	if !ok {
		t.Errorf("%s: no golden digest (got %q)", key, got)
		return
	}
	if got != want {
		t.Errorf("%s: digest %q, want %q", key, got, want)
	}
}

// TestServeRecordGolden runs every registered scheme through the open loop,
// fixed fleets and an elastic fleet, hashing Result plus every per-task
// record (and, for fleets, routing, per-node views and the scale outcome).
// It pins the serving paths bit for bit across refactors of the drivers that
// host them.
func TestServeRecordGolden(t *testing.T) {
	const n, rate = 96, 256e3
	tasks := clusterTestTasks(t, n)
	// Shared-memory-bound tasks (Pagoda's 32 KB arena maximum) on a single
	// SMM, so zorua's virtualized admission diverges from HyperQ's.
	for i := range tasks {
		tasks[i].SharedMem = 32 * 1024
	}
	cfg := clusterTestConfig()
	cfg.SMMs = 1
	poisson := serve.Poisson{Rate: rate, Seed: 1}.Times(n)
	bursty := serve.Bursty{PeakRate: 1e6, Burst: 8, Gap: 50_000}.Times(n)
	classOf, affinity := make([]int, n), make([]int, n)
	for i := range classOf {
		classOf[i], affinity[i] = i%3, i%5
	}
	classes := tenancy.DefaultClasses(3, 64e3, 1_000_000, poisson[n-1]+1, 11, 1)

	for _, sc := range Schemes() {
		// Open loop under each admission shape; class-aware admission also
		// hashes its per-task outcomes.
		for _, name := range []string{"none", "queue6", "token", tenancy.AdmitStrict, tenancy.AdmitWFQ} {
			ol := OpenLoop{Arrivals: poisson}
			var outcomes func() []tenancy.Outcome
			switch name {
			case "queue6":
				ol.Admit = serve.BoundedQueue{Limit: 6}.Admit
			case "token":
				ol.Admit = serve.NewTokenBucket(rate/2, 4).Admit
			case tenancy.AdmitStrict, tenancy.AdmitWFQ:
				adm := tenancy.NewAdmission(name, classes, poisson, classOf, 8, true)
				ol.AdmitTask, outcomes = adm.AdmitTask, adm.Outcomes
			}
			res, recs := sc.RunOpenLoop(tasks, ol, cfg)
			h := sha256.New()
			digestf(h, res, recs)
			if outcomes != nil {
				digestf(h, outcomes())
			}
			checkServeGolden(t, "openloop/"+sc.Key+"/"+name, h)
		}

		// Fixed fleets under every routing policy.
		for _, nodes := range []int{1, 3} {
			for _, pname := range cluster.PolicyNames() {
				mk, err := cluster.NewPolicy(pname, 7)
				if err != nil {
					t.Fatal(err)
				}
				res, cr := sc.RunCluster(tasks, ClusterOpenLoop{
					Arrivals: bursty, Classes: affinity, Nodes: nodes, Policy: mk(),
					Admit: func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 6}.Admit },
				}, cfg)
				h := sha256.New()
				digestf(h, res, cr.Recs, cr.NodeOf, cr.Views)
				checkServeGolden(t, fmt.Sprintf("fleet/%s/n%d/%s", sc.Key, nodes, pname), h)
			}
		}

		// One elastic run that scales out under a flash crowd.
		flash := serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
			SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 2}.Times(n)
		res, cr := sc.RunCluster(tasks, ClusterOpenLoop{
			Arrivals: flash, Policy: cluster.LeastOutstanding{},
			Admit:  func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 6}.Admit },
			Scaler: elasticTestScaler("reactive", 1, 4),
		}, cfg)
		h := sha256.New()
		digestf(h, res, cr.Recs, cr.NodeOf, cr.Views, *cr.Scale)
		checkServeGolden(t, "elastic/"+sc.Key, h)
	}
}
