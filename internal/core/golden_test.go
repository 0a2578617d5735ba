package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hypermine/internal/table"
)

// goldenTable draws rows from two hidden states: attributes 0-2 follow
// the first, 3-5 the second, and 6 is noise, each with its own noise
// rate, so every stage admits some edges and rejects others at the
// gammas below, and EdgeSeeded prunes candidates AllPairs keeps.
func goldenTable(t *testing.T, k int) *table.Table {
	t.Helper()
	const attrs = 7
	rows := 300 + 150*k
	rng := rand.New(rand.NewSource(int64(1000 + k)))
	names := make([]string, attrs)
	for j := range names {
		names[j] = fmt.Sprintf("g%d", j)
	}
	data := make([][]table.Value, rows)
	for i := range data {
		hidden := [2]int{rng.Intn(k), rng.Intn(k)}
		row := make([]table.Value, attrs)
		for j := range row {
			v := (hidden[j/3%2] + j) % k
			if j == attrs-1 || rng.Float64() < 0.3+0.1*float64(j%3) {
				v = rng.Intn(k)
			}
			row[j] = table.Value(1 + v)
		}
		data[i] = row
	}
	tb, err := table.FromRows(names, k, data)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// goldenDigests pins the SHA-256 of WriteSnapshot for every cell of the
// matrix k x MaxTailSize x Candidates x Parallelism. The snapshot
// encodes the config and every edge weight bit for bit, so any change
// to a count, an admission or the edge order shows here.
var goldenDigests = map[string]string{
	"k2/tail1/cand0/par1":  "21b3211eefaa81c406b5b8324e9f33f8be538d914a681aa0106dde411181f726",
	"k2/tail1/cand0/par4":  "eded13f87ee85e189096005718e2b2ab1791dd8c9d50fd3e53503f9229ef6014",
	"k2/tail1/cand1/par1":  "ff003cf238f58b5cfa34365bc22a0e12f7e59510d2c51f5e6b77fe4cfc7cf4a0",
	"k2/tail1/cand1/par4":  "400a5ac1facc52322338101c4a5a50ea10b655f962e80f6e6ca36ddc2559174b",
	"k2/tail2/cand0/par1":  "df51198706787a255e14896e49342ee6ffa2a8a66e1fcde6dcb23d5767e009d4",
	"k2/tail2/cand0/par4":  "7a55f5a14fc5fe96752596de397fa620491839561a5b6d5f605b7bfe5fddcc6a",
	"k2/tail2/cand1/par1":  "41a040146289e275e9115d6fda7161a808a265b2c22fcce20d245d5ff239b885",
	"k2/tail2/cand1/par4":  "1de54bae1997e1f52723cb014ed01ccd2d739673b264c2dc882b953b156f04a5",
	"k2/tail3/cand0/par1":  "43aca2b78401e783caa8dcee6375a71b491ffa5d783e9bb7c1354054363271d4",
	"k2/tail3/cand0/par4":  "e8622f19e37f3abdbf0bb3c6cdd417caf49c977b7e638cea99c7eb5bf791fcc2",
	"k2/tail3/cand1/par1":  "c159d806bcb6f466f2727027ad53f8fd132cd23967ed555a0025ef762db18530",
	"k2/tail3/cand1/par4":  "fe8a4432d0a61fdb48bb399604a88318dfc71f073c2a9edd23037c1e1ac8469f",
	"k3/tail1/cand0/par1":  "42099481766a63a90942f63ead045b4cbe843d1d76b70dd8c66deba81599d29b",
	"k3/tail1/cand0/par4":  "300a2cc48b220d1db2876a381a1b3b7232c3b53beaf03001b3cf8d97c270eac2",
	"k3/tail1/cand1/par1":  "c4af123c4ed3b2b5418eb0be821aecda7c681115a9d125a1f666e992b740cb06",
	"k3/tail1/cand1/par4":  "59f227dc235675d0816d1f7915c7ed88f838a31eedd18dc521e2c456ba93118b",
	"k3/tail2/cand0/par1":  "9d7548701c52cdab694e12f47670b58a061f4e43cb555b4ec533b04a9f7bec38",
	"k3/tail2/cand0/par4":  "3804974a11bc8dedcb2b074a2ee52ae6b998d8fcc2b0c3d72836205fff96e43b",
	"k3/tail2/cand1/par1":  "c4000b310b28417f9841b5447a939a6610c48201d97137481b15a7e5a87dfa59",
	"k3/tail2/cand1/par4":  "3207c4b55af9a88f60a1c30648287ae89d9825c232284919a0f58b19edfd2a91",
	"k3/tail3/cand0/par1":  "995131b1dcf3293f497351684a81afbcb2949f1a88a253ea0b86107de5c5bb9e",
	"k3/tail3/cand0/par4":  "f207d0e6012fb3e8442e44919b2c8bc88b176eb23931e836a90a6630b33635ca",
	"k3/tail3/cand1/par1":  "07d3c9c27e100835567856e12bdc9bb079b6515f2ceca0cc46a9fcd6e6b88bb3",
	"k3/tail3/cand1/par4":  "3b9f739ead4665834471232b06a1429caff69a4e5f454a6471bd290f1a96cba9",
	"k5/tail1/cand0/par1":  "d227a74cc9e59d7ef8ff7ea57c1409deaf69a0131251c88d6d6649795f2541be",
	"k5/tail1/cand0/par4":  "6b3ed6f6e25b99e982afc0596ab2179c29bbca6877fb387a205b2d99fc3e40e3",
	"k5/tail1/cand1/par1":  "b03b1219c4b2b294bf0eb0fda012271e61b1ca9bacf2060c57bd1aaf0a662e3f",
	"k5/tail1/cand1/par4":  "9e3884b6abd30c2494d1a5cf7b467cf704f60e278f2092df5bff6a7531be7e0a",
	"k5/tail2/cand0/par1":  "19489b9b4da823aab3695eb254b35968be7cf7473ca8bd823792720051097524",
	"k5/tail2/cand0/par4":  "2dafcf94bd5f871a6e92ef236417a6ee8ef86b71642b6a80dd0b6ba529d0bb70",
	"k5/tail2/cand1/par1":  "5ef27945220c21c19dc3a3ae2297c17f62bb4235fe497b0786463f64d3098d08",
	"k5/tail2/cand1/par4":  "9cda8575b051ed8fa1790e05e7fc980c0c59c13ae9c9aed4427843edd8c05251",
	"k5/tail3/cand0/par1":  "4de8bc450380bafb4d3da4b6b1e506f5d19ca8dfbe6ff808ad23ac0dc92c7d17",
	"k5/tail3/cand0/par4":  "4fa38b06d0644a4332ffa48fafd92f79527a2b1e4dc53256e2dcd883a67b1081",
	"k5/tail3/cand1/par1":  "da462c67e5eb5fa2de6d6991e3113a1cd3b0a407b7ad18a3e0320503b4eefc61",
	"k5/tail3/cand1/par4":  "2d28009c897aa126dd175bf3457c127ce76406168b930702e35e3f4b3555ed56",
	"k9/tail1/cand0/par1":  "ffe913623d670f5e820b64bffd0bc615e18a5fdb5fcc330af1ba194d11028255",
	"k9/tail1/cand0/par4":  "3ef659d6ae79b567fea4aa990f389f833cab3438845b1b9c7af7724f677f461c",
	"k9/tail1/cand1/par1":  "db5c005d3497ea8c382ae496ae33f234fa48c7b7566f3f3a38a78877b4404c18",
	"k9/tail1/cand1/par4":  "bc07e1f266c391b765f0ca4cc910ea4971dd24318c60e3d9187eca9c037cb376",
	"k9/tail2/cand0/par1":  "a442438d229b5d3473ed8fb4463108bd755915eedb8474246e748fa7a1350bfe",
	"k9/tail2/cand0/par4":  "25232342d1507889aa5659429fb96a41d216ab08d76a6ddcc6972591311826d3",
	"k9/tail2/cand1/par1":  "ed6df5ac2a7a9b4e2f62bd63dcf77b10d259c95ca6496c344af6430220e7b100",
	"k9/tail2/cand1/par4":  "55029ff2dc33ba1ea37afef886485109c3668f53ca73ac4575bcd1d5149b7cbc",
	"k9/tail3/cand0/par1":  "4553edb162b99be9984973bf700b9049fc85e1a95701a79a3e71fd75aa846c64",
	"k9/tail3/cand0/par4":  "6849e27d3a598f7e09cd197a7323c68395be41388fefa174413373d56b77c693",
	"k9/tail3/cand1/par1":  "6ef1fc253f3f4bdde82880e5117adde45393e6d1e0c2f126e4635b14683661e3",
	"k9/tail3/cand1/par4":  "86a700342178ac8477d6af2e62a48a2a7b985b4f0e63cc938e5ceddb7cc0a7c4",
	"k10/tail1/cand0/par1": "99e3ac6863a339666a44a9db07117f9edf8f201fc782e6bc67b2d48c51f3f75e",
	"k10/tail1/cand0/par4": "14560728b30855a91516c942ea0ce9c2f6b66b0766ce3f39416facda3373e86e",
	"k10/tail1/cand1/par1": "1d88ec5890b5f6a3fde7b2524917883eee905ffb7df92ee038c1efdcba650974",
	"k10/tail1/cand1/par4": "8415e850817d3d4007ca308a6468cd2de8d371117af706fbfb7fa1b3730903a7",
	"k10/tail2/cand0/par1": "d875395a06f281a454fad64198004d2209b291e9e7d0f29892e28d86ab3f4fab",
	"k10/tail2/cand0/par4": "68cf75055e102d8d1cadf8995a08a261396d21e7bc7c0a6e464ff1f8916ba131",
	"k10/tail2/cand1/par1": "bac93199b0b5b53a0de347e6d3d96845ef3d5ef1c735bbab1eb112cdffef4710",
	"k10/tail2/cand1/par4": "fe0eb96585bbff341edb4c69b7a1f63d4db3614054b0f66598a1e18d725ed7e5",
	"k10/tail3/cand0/par1": "0373889f4de785130ecf76c65593272e33250151679e29a70b898eefc7c49f7f",
	"k10/tail3/cand0/par4": "cbbcce9c9bbac4ffb46342c11307413951156da41884009a560d0526b67a8096",
	"k10/tail3/cand1/par1": "9940c1dd8b11dd7e35b29ecdcb0abacee7b60ff5aa76a0a4fb2100a2d0d1ddd3",
	"k10/tail3/cand1/par4": "4a5a4f09debe42c4c73dea42690e159221f431801a594403f9c909cb4658a251",
}

func TestGoldenSnapshotDigests(t *testing.T) {
	for _, k := range []int{2, 3, 5, 9, 10} {
		tb := goldenTable(t, k)
		for _, tail := range []int{1, 2, 3} {
			for _, cand := range []CandidateStrategy{AllPairs, EdgeSeeded} {
				for _, par := range []int{1, 4} {
					cfg := Config{
						GammaEdge: 1.2, GammaPair: 1 + 0.01*float64(k), GammaTriple: 1.02,
						MaxTailSize: tail, Candidates: cand, Parallelism: par,
					}
					name := fmt.Sprintf("k%d/tail%d/cand%d/par%d", k, tail, cand, par)
					m, err := Build(tb, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var buf bytes.Buffer
					if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sum := sha256.Sum256(buf.Bytes())
					if got := hex.EncodeToString(sum[:]); got != goldenDigests[name] {
						t.Errorf("%s: digest %s, want %s (%d edges)", name, got, goldenDigests[name], m.H.NumEdges())
					}
				}
			}
		}
	}
}

// TestSnapshotIndependentOfGOMAXPROCS: Parallelism 0 means every CPU
// of the building process, and the model keeps the 0 it was given, so
// one table and config give the same snapshot bytes on any host.
func TestSnapshotIndependentOfGOMAXPROCS(t *testing.T) {
	tb := goldenTable(t, 3)
	var snaps [][]byte
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		m, err := Build(tb, Config{GammaEdge: 1.2, GammaPair: 1.03})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("snapshot bytes differ between GOMAXPROCS 1 and 2")
	}
}
