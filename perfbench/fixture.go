package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/workload"
)

// Every workload's realm. The population is internal/workload's: user
// names, passwords and keys come from a workload.Spec (the §9 Athena
// spec, or a 1M-user spec of the same shape for the login storm), so
// the generator can verify any reply by deriving the user's key. The
// other principals (krbtgt, services, the file server) get keys
// derived from their names. A fixture depends only on its spec and on
// the code that writes it, so it is built once per checkout and source
// tree and reused by every seed.
const (
	realm          = "ATHENA.MIT.EDU"
	masterPassword = "perfbench-master"
	fixtureShards  = 8
)

// population is the §9 deployment: 5,000 users and 65 services.
// loginPopulation is the 1M-principal realm of the login storm; its
// names and passwords follow the same scheme.
var (
	population      = workload.Athena
	loginPopulation = workload.Spec{Users: 1_000_000}
)

func masterKey() des.Key { return des.StringToKey(masterPassword, realm) }

// userKey is user i's password-derived key, as kinit would derive it.
func userKey(spec workload.Spec, i int) des.Key {
	return client.PasswordKey(spec.UserPrincipal(i, realm), spec.UserPassword(i))
}

// principalKey derives a non-user principal's key from its name.
func principalKey(p core.Principal) des.Key {
	return client.PasswordKey(p.WithRealm(realm), "perfbench principal key")
}

func userName(i int) string { return population.UserName(i) }

// userIndex parses a user name back to its index, or -1.
func userIndex(name string) int {
	if len(name) < 2 || name[0] != 'u' {
		return -1
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil || n < 0 || userName(n) != name {
		return -1
	}
	return n
}

var (
	tgsPrincipal   = core.TGSPrincipal(realm, realm)
	probePrincipal = core.Principal{Name: "probe", Realm: realm}
	loopback       = core.AddrFromString("127.0.0.1")
)

// realmSpec sizes a fixture realm.
type realmSpec struct {
	name     string        // fixture directory name
	pop      workload.Spec // users and services
	services bool          // register pop.Services service principals
	extra    []core.Principal
}

// fixture is a built segment database directory.
type fixture struct {
	dir  string
	genS float64 // how long the build that made this fixture took
}

// buildFixture returns the realm's database directory under
// .bench_build/fixtures, building it (krbtgt, probe, users, services
// and extras) when absent. The directory name carries a digest of the
// checkout's Go sources, so a fixture written by other code (another
// database format, compactor or loader) is never reused; fixtures of
// the same realm from other sources are removed. The build goes to a
// temporary directory that is renamed into place, so an interrupted
// build is never reused.
func buildFixture(b *bench, spec realmSpec) (*fixture, error) {
	parent := filepath.Join(b.out, "fixtures")
	dir := filepath.Join(parent, spec.name+"-"+b.source[:16])
	meta := filepath.Join(dir, "fixture.json")
	var f fixture
	if data, err := os.ReadFile(meta); err == nil && json.Unmarshal(data, &f.genS) == nil {
		f.dir = filepath.Join(dir, "db")
		b.env["fixture"] = map[string]any{"name": filepath.Base(dir), "build_s": f.genS, "built_this_run": false}
		return &f, nil
	}
	if stale, err := filepath.Glob(filepath.Join(parent, spec.name+"-*")); err == nil {
		for _, s := range stale {
			os.RemoveAll(s)
		}
	}
	start := time.Now()
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		return nil, err
	}
	mk := masterKey()
	master := des.NewCipher(mk)
	now := time.Now()
	entry := func(p core.Principal, k des.Key, life core.Lifetime) *kdb.Entry {
		return &kdb.Entry{Name: p.Name, Instance: p.Instance, EncKey: master.Seal(k[:]), KVNO: 1,
			Expiration: now.AddDate(10, 0, 0), MaxLife: life, ModTime: now, ModBy: "perfbench"}
	}
	other := func(p core.Principal) *kdb.Entry { return entry(p, principalKey(p), core.DefaultTGTLife) }
	changePw := core.ChangePwPrincipal(realm)
	entries := []*kdb.Entry{other(tgsPrincipal), other(probePrincipal), entry(changePw, principalKey(changePw), core.Lifetime(1))}
	for _, p := range spec.extra {
		entries = append(entries, other(p))
	}
	if spec.services {
		for i := 0; i < spec.pop.Services; i++ {
			entries = append(entries, other(spec.pop.ServicePrincipal(i, realm)))
		}
	}
	for i := 0; i < spec.pop.Users; i++ {
		entries = append(entries, entry(spec.pop.UserPrincipal(i, realm), userKey(spec.pop, i), core.DefaultTGTLife))
	}
	db, segs, err := kdb.OpenSegmentDB(mk, filepath.Join(tmp, "db"), fixtureShards, kdb.SegmentOptions{NoFsync: true})
	if err != nil {
		return nil, err
	}
	err = db.LoadDump(kdb.EncodeEntriesAt(entries, kdb.DumpMeta{Serial: uint64(len(entries)), Digest: 1}))
	for _, s := range segs {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("building fixture %s: %w", spec.name, err)
	}
	f.genS = time.Since(start).Seconds()
	data, _ := json.Marshal(f.genS)
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), data, 0o600); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	f.dir = filepath.Join(dir, "db")
	b.env["fixture"] = map[string]any{"name": filepath.Base(dir), "build_s": f.genS, "built_this_run": true}
	return &f, nil
}
