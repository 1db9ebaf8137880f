// Command palladium-serve is the HTTP front end of the reproduction: a
// daemon serving the paper's Table 3 workload over a fleet of
// simulated Palladium machines, with bounded admission control (too
// many requests in flight => HTTP 503 + Retry-After), load-driven
// autoscaling via clone-boot, and latency observability.
//
// Usage:
//
//	palladium-serve -addr 127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/serve?model=libcgi-prot'
//	curl http://127.0.0.1:8080/metrics
//
// Endpoints:
//
//	/serve?model=M  serve one request under model M (static, cgi,
//	                fastcgi, libcgi, libcgi-prot; default -model)
//	/healthz        liveness
//	/metrics        Prometheus-style counters + latency quantiles
//	/debug/pprof/   net/http/pprof
//
// Clone-per-request serving and snapshot cold starts:
//
//	palladium-serve -save-template tmpl.pal   # boot, snapshot to disk, exit
//	palladium-serve -restore tmpl.pal         # cold-start from the snapshot
//	palladium-serve -clone -warm-clones 4     # serve every request on a clone
//	                                          # of the template, reset to it
//	                                          # after the response; fork 4
//	                                          # reset clones at boot
//	palladium-serve -scale-down-depth 0.5     # retire idle scaled-up workers
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting, finishes every admitted request, then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/webserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
	fileSize := flag.Uint("file-size", 28, "served file size in bytes (Table 3 row)")
	workers := flag.Int("workers", 1, "initial fleet size")
	maxWorkers := flag.Int("max-workers", 0, "autoscaling cap (<= -workers disables autoscaling)")
	queue := flag.Int("queue", 0, "admission bound on in-flight requests (default 4*max workers)")
	scaleInterval := flag.Duration("scale-interval", 10*time.Millisecond, "autoscaler sampling period")
	scaleDepth := flag.Float64("scale-depth", 2, "scale up while requests in flight exceed this per worker")
	scaleDownDepth := flag.Float64("scale-down-depth", 0, "retire idle workers above the boot size while requests in flight stay below this per remaining worker (0 disables)")
	model := flag.String("model", "libcgi-prot", "default execution model when ?model= is absent")
	clone := flag.Bool("clone", false, "clone-per-request mode: serve every request on a clone of the template, reset to it after the response")
	warmClones := flag.Int("warm-clones", 2, "reset clones forked at boot with -clone (at most the worker cap)")
	restore := flag.String("restore", "", "cold-start the template from this snapshot file instead of booting (see -save-template)")
	saveTemplate := flag.String("save-template", "", "boot a pristine template, write its snapshot to this file, and exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "palladium-serve:", err)
		os.Exit(1)
	}

	if *saveTemplate != "" {
		srv, err := webserver.BootServer(uint32(*fileSize))
		if err != nil {
			fail(err)
		}
		img := srv.SaveBytes()
		if err := os.WriteFile(*saveTemplate, img, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("palladium-serve: wrote %d-byte template snapshot (%d-byte file) to %s\n",
			len(img), *fileSize, *saveTemplate)
		return
	}

	var restoreImage []byte
	if *restore != "" {
		img, err := os.ReadFile(*restore)
		if err != nil {
			fail(err)
		}
		restoreImage = img
	}

	s, err := serve.New(serve.Config{
		Addr:            *addr,
		FileSize:        uint32(*fileSize),
		Workers:         *workers,
		MaxWorkers:      *maxWorkers,
		Queue:           *queue,
		ScaleInterval:   *scaleInterval,
		ScaleUpDepth:    *scaleDepth,
		ScaleDownDepth:  *scaleDownDepth,
		ClonePerRequest: *clone,
		WarmClones:      *warmClones,
		RestoreImage:    restoreImage,
		DefaultModel:    *model,
	})
	if err != nil {
		fail(err)
	}
	if err := s.Start(); err != nil {
		fail(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Printf("palladium-serve: listening on %s (%d workers, max %d, queue %d, default model %s)\n",
		s.Addr(), s.Workers(), maxWorkersEffective(*workers, *maxWorkers), s.Pool().Bound(), *model)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("palladium-serve: shutting down (draining admitted requests)")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		fail(err)
	}
	c := s.CountersSnapshot()
	fmt.Printf("palladium-serve: done: admitted=%d completed=%d failed=%d rejected=%d scaleups=%d scaledowns=%d\n",
		c.Admitted, c.Completed, c.Failed, c.Rejected, c.ScaleUps, c.ScaleDowns)
	if cs, ok := s.CloneStats(); ok {
		fmt.Printf("palladium-serve: clones: forks=%d discards=%d cold_steals=%d\n",
			cs.Forks, cs.Discards, cs.ColdSteals)
	}
	if c.Admitted != c.Completed+c.Failed {
		fail(fmt.Errorf("dropped %d admitted requests", c.Admitted-c.Completed-c.Failed))
	}
}

func maxWorkersEffective(workers, maxWorkers int) int {
	if maxWorkers < workers {
		return workers
	}
	return maxWorkers
}
