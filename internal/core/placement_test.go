package core

import (
	"testing"

	"pmemsched/internal/workloads"
)

func TestDeploymentValidate(t *testing.T) {
	if err := (Deployment{SimSocket: 1, AnaSocket: 1}).Validate(); err == nil {
		t.Fatal("co-located components validated")
	}
	if err := (Deployment{SimSocket: 0, AnaSocket: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDeploymentRoundTrip(t *testing.T) {
	for _, cfg := range Configs {
		d := cfg.Deployment()
		if d.Mode != cfg.Mode {
			t.Errorf("%s: mode mismatch", cfg)
		}
		wantLoc := ChannelLocalToSim
		if cfg.Placement == LocR {
			wantLoc = ChannelLocalToAna
		}
		if d.Locality() != wantLoc {
			t.Errorf("%s: locality %s", cfg, d.Locality())
		}
	}
}

func TestRunDeploymentMatchesRun(t *testing.T) {
	wf := workloads.GTCReadOnly(8)
	env := DefaultEnv()
	for _, cfg := range Configs {
		a, err := Run(wf, cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := RunDeployment(wf, cfg.Deployment(), env, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalSeconds != b.TotalSeconds {
			t.Fatalf("%s: Run %g != RunDeployment %g", cfg, a.TotalSeconds, b.TotalSeconds)
		}
	}
}

func TestPlacementOracleFourSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("placement search in -short mode")
	}
	env := symmetricEnv(4, nil)
	wf := workloads.MiniAMRReadOnly(16)
	dec, err := PlacementOracle(wf, env, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2 modes x 4*3 ordered component pairs x 4 channel sockets.
	if len(dec.Results) != 2*12*4 {
		t.Fatalf("%d deployments searched", len(dec.Results))
	}
	if dec.Best.Result.TotalSeconds <= 0 {
		t.Fatal("no best")
	}
	// The paper's Fig 2 exclusion validated: a channel remote to both
	// components never wins.
	if dec.Best.Deployment.Locality() == ChannelRemoteToBoth {
		t.Fatalf("both-remote channel won: %s", dec.Best.Deployment.Label())
	}
	// And every both-remote deployment is dominated by its local-to-sim
	// counterpart.
	byDep := map[Deployment]float64{}
	for _, r := range dec.Results {
		byDep[r.Deployment] = r.Result.TotalSeconds
	}
	for dep, total := range byDep {
		if dep.Locality() != ChannelRemoteToBoth {
			continue
		}
		counter := dep
		counter.DeviceSocket = dep.SimSocket
		if counterTotal, ok := byDep[counter]; ok && total < counterTotal*0.999 {
			t.Fatalf("both-remote %s (%.3fs) beat local-to-sim %s (%.3fs)",
				dep.Label(), total, counter.Label(), counterTotal)
		}
	}
}

func TestPlacementOracleRejectsTinyMachines(t *testing.T) {
	if _, err := PlacementOracle(workloads.GTCReadOnly(8), DefaultEnv(), 1); err == nil {
		t.Fatal("1-socket search accepted")
	}
}

func TestLocalityStrings(t *testing.T) {
	if ChannelLocalToSim.String() == "" || ChannelLocalToAna.String() == "" || ChannelRemoteToBoth.String() == "" {
		t.Fatal("empty locality strings")
	}
	d := Deployment{SimSocket: 0, AnaSocket: 1, DeviceSocket: 2}
	if d.Locality() != ChannelRemoteToBoth {
		t.Fatal("third-socket channel not remote-to-both")
	}
}
