// Command apserve exposes a trained safety monitor as a streaming HTTP
// service: per-patient sessions ingest raw pump samples (JSON arrays or
// NDJSON streams) and read back verdicts by long-poll or chunked stream,
// while a cross-session micro-batching dispatcher fuses concurrent rows
// into single inference calls over the frozen float32 engine.
//
// Usage:
//
//	apserve [-addr HOST:PORT] [-model model.bin]
//	        [-sim glucosym|t1ds] [-arch mlp|lstm] [-epochs N]
//	        [-profiles N] [-episodes N] [-steps N] [-scenarios MIX] [-seed N]
//	        [-precision f32|f64] [-bypass]
//	        [-batch-max N] [-max-queue N]
//	        [-max-sessions N] [-idle-timeout D]
//	        [-parallel N] [-cache DIR] [-no-cache]
//	        [-loadgen N] [-loadgen-samples N] [-loadgen-mode stream|request]
//	        [-loadgen-seed N]
//
// Without -model the monitor is trained (or loaded content-addressed from
// the artifact cache) exactly like apstrain, so a warm start is instant.
//
// -loadgen N switches to self-benchmark mode: the server is started on a
// loopback listener, N concurrent synthetic patient sessions are driven
// against it, and a one-line summary plus a deterministic verdict digest
// are printed. The digest is bit-identical across -parallel settings,
// batch compositions and -bypass (for a fixed precision), which is what
// the CI smoke asserts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "apserve:", err)
		os.Exit(1)
	}
}

// appFlags is apserve's full flag surface, registered by addFlags so the
// help golden test can render it.
type appFlags struct {
	common *cliconfig.Common
	simu   *string
	arch   *string
	shape  *cliconfig.Shape
	epochs *int

	addr        *string
	modelPath   *string
	bypass      *bool
	batchMax    *int
	maxQueue    *int
	maxSessions *int
	idleTimeout *time.Duration
	debM        *int
	debN        *int
	cusumK      *float64
	cusumH      *float64
	loadgen     *int
	loadSamples *int
	loadMode    *string
	loadSeed    *int64
}

func addFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{
		common: cliconfig.AddCommon(fs, cliconfig.CommonDefaults{
			Seed:      1,
			Parallel:  runtime.GOMAXPROCS(0),
			Precision: monitor.F32,
		}),
		simu:   cliconfig.AddSim(fs),
		arch:   cliconfig.AddArch(fs),
		shape:  cliconfig.AddShape(fs, 10, 4, 150),
		epochs: cliconfig.AddEpochs(fs, 15),
	}
	f.addr = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	f.modelPath = fs.String("model", "", "serve this trained model file instead of training")
	f.bypass = fs.Bool("bypass", false, "disable micro-batching: classify every request inline (baseline)")
	f.batchMax = fs.Int("batch-max", 0, "micro-batch fuse limit (0 = default 32)")
	f.maxQueue = fs.Int("max-queue", 0, "dispatcher queue depth before 429s (0 = default 32×batch-max)")
	f.maxSessions = fs.Int("max-sessions", 1024, "live session cap (creation beyond it gets 429)")
	f.idleTimeout = fs.Duration("idle-timeout", 5*time.Minute, "evict sessions idle this long (<0 disables)")
	f.debM = fs.Int("debounce-m", 0, "default session debounce m (m-of-n, 0 = raw verdicts)")
	f.debN = fs.Int("debounce-n", 0, "default session debounce n")
	f.cusumK = fs.Float64("cusum-k", 0, "default session CUSUM reference k")
	f.cusumH = fs.Float64("cusum-h", 0, "default session CUSUM threshold h (0 disables drift)")
	f.loadgen = fs.Int("loadgen", 0, "self-benchmark with N concurrent synthetic sessions, then exit")
	f.loadSamples = fs.Int("loadgen-samples", 64, "samples per synthetic session")
	f.loadMode = fs.String("loadgen-mode", "stream", "loadgen transport: stream (NDJSON) or request (one POST per sample)")
	f.loadSeed = fs.Int64("loadgen-seed", 1, "loadgen script seed")
	return f
}

func run() error {
	f := addFlags(flag.CommandLine)
	flag.Parse()
	parallel, err := f.common.ApplyBudget()
	if err != nil {
		return err
	}

	m, err := loadOrTrain(f, parallel)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Monitor:     m,
		Precision:   f.common.Precision,
		Bypass:      *f.bypass,
		Batcher:     serve.BatcherConfig{MaxBatch: *f.batchMax, MaxQueue: *f.maxQueue},
		MaxSessions: *f.maxSessions,
		IdleTimeout: *f.idleTimeout,
		Session: serve.SessionConfig{
			DebounceM: *f.debM, DebounceN: *f.debN,
			CUSUMK: *f.cusumK, CUSUMH: *f.cusumH,
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	mode := "micro-batched"
	if *f.bypass {
		mode = "bypass"
	}
	fmt.Printf("apserve: %s on http://%s (%s, %s, window %d)\n",
		m.Name(), ln.Addr(), mode, f.common.Precision, srv.Window())

	if *f.loadgen > 0 {
		err := runLoadgen(ln.Addr().String(), *f.loadgen, *f.loadSamples, *f.loadMode, *f.loadSeed, srv)
		shutdown(httpSrv, srv)
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("apserve: signal received, draining")
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			return err
		}
	}
	shutdown(httpSrv, srv)
	fmt.Println("apserve: drained and stopped")
	return nil
}

// shutdown stops accepting requests, then drains the dispatcher so every
// admitted row still gets its verdict.
func shutdown(httpSrv *http.Server, srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	srv.Close()
}

func runLoadgen(addr string, sessions, samples int, mode string, seed int64, srv *serve.Server) error {
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:           "http://" + addr,
		Sessions:          sessions,
		SamplesPerSession: samples,
		Mode:              mode,
		Seed:              seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %d sessions × %d samples (%s) in %v: %d verdicts (%d alarms), %.0f samples/s, p50 %v p99 %v\n",
		res.Sessions, res.Samples, mode, res.Elapsed.Round(time.Millisecond),
		res.Verdicts, res.Alarms, res.SamplesPerSec, res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	bs := srv.BatcherStats()
	if bs.Flushes > 0 {
		fmt.Printf("batcher: %d flushes (%d size, %d partial, %d drain), occupancy %.2f\n",
			bs.Flushes, bs.SizeFlushes, bs.DeadlineFlushes, bs.DrainFlushes, bs.Occupancy())
	}
	fmt.Printf("digest %s\n", res.Digest)
	return nil
}

// loadOrTrain either loads a saved model or reproduces apstrain's
// content-addressed campaign + training path.
func loadOrTrain(f *appFlags, parallel int) (*monitor.MLMonitor, error) {
	if *f.modelPath != "" {
		file, err := os.Open(*f.modelPath)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		m, err := monitor.Load(file)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", *f.modelPath, err)
		}
		fmt.Printf("model loaded from %s\n", *f.modelPath)
		return m, nil
	}

	simu, err := cliconfig.ParseSimulator(*f.simu)
	if err != nil {
		return nil, err
	}
	a, err := cliconfig.ParseArch(*f.arch)
	if err != nil {
		return nil, err
	}
	camp, err := f.common.CampaignConfig(simu, f.shape, parallel)
	if err != nil {
		return nil, err
	}
	store := f.common.OpenStore(log.Printf)
	ds, hit, err := experiments.CachedCampaign(store, camp)
	if err != nil {
		return nil, err
	}
	source := "generated"
	if hit {
		source = "loaded from artifact cache"
	}
	fmt.Printf("campaign %s (%s, %d profiles × %d episodes × %d steps)\n",
		source, simu, f.shape.Profiles, f.shape.Episodes, f.shape.Steps)
	const trainFrac = 0.75
	train, _, err := ds.Split(trainFrac)
	if err != nil {
		return nil, err
	}
	tc := monitor.TrainConfig{Arch: a, Epochs: *f.epochs, Seed: f.common.Seed, Workers: parallel}
	m, hit, err := experiments.CachedMonitor(store, train, camp, trainFrac, tc)
	if err != nil {
		return nil, err
	}
	if hit {
		fmt.Println("monitor loaded from artifact cache (training skipped)")
	}
	return m, nil
}
