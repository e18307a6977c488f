package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"

	"repro/internal/cluster/client"
	"repro/internal/serve"
)

// Errors the coordinator API maps onto HTTP statuses.
var (
	ErrNoWorkers  = errors.New("cluster: no routable workers")
	ErrNotFound   = errors.New("cluster: job not found")
	ErrUnroutable = errors.New("cluster: job's worker is unreachable")
)

// Submit admits a job to the cluster: mint a coordinator id, shard it
// onto the ring, and import it into the owning worker. Workers that
// refuse (draining, queue full past the retry budget, dead) are skipped
// in ring order, so admission degrades before it fails.
func (c *Coordinator) Submit(ctx context.Context, spec serve.JobSpec) (Info, error) {
	if err := spec.Normalize(); err != nil {
		return Info{}, err
	}
	id := newJobID()
	st := serve.JobStatus{ID: id, State: serve.StateQueued, Mode: spec.Mode, Spec: spec}

	c.mu.Lock()
	cands := c.candidatesLocked(id, "")
	c.mu.Unlock()
	if len(cands) == 0 {
		return Info{}, ErrNoWorkers
	}

	var lastErr error
	for _, ws := range cands {
		var out serve.JobStatus
		err := ws.cl.Do(ctx, http.MethodPost, "/jobs/import", importBody(st, nil), &out)
		if err != nil {
			lastErr = err
			continue
		}
		j := &cjob{id: id, worker: ws.info.Name, last: out, mirroredStep: -1}
		c.mu.Lock()
		c.jobs[id] = j
		c.persistAssignment(j)
		c.mu.Unlock()
		c.mSubmitted.Inc()
		c.cfg.Logf("cluster: %s -> %s (%s tc%d level %d, ensemble %d)",
			id, ws.info.Name, spec.Mode, spec.TestCase, spec.Level, spec.Ensemble)
		return Info{JobStatus: out, Worker: ws.info.Name}, nil
	}
	return Info{}, fmt.Errorf("cluster: no worker accepted the job: %w", lastErr)
}

// job returns the coordinator record and (when assigned) the live worker.
func (c *Coordinator) job(id string) (*cjob, *workerState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	return j, c.workers[j.worker], nil
}

// Status returns the job's status, live from its worker when reachable,
// from the coordinator cache when not (mid-failover the cache is the only
// truth available — the next tick will refresh or steal).
func (c *Coordinator) Status(ctx context.Context, id string) (Info, error) {
	j, ws, err := c.job(id)
	if err != nil {
		return Info{}, err
	}
	if ws != nil {
		var st serve.JobStatus
		if err := ws.cl.GetJSON(ctx, "/jobs/"+id, &st); err == nil {
			c.mu.Lock()
			j.last = st
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Info{JobStatus: j.last, Worker: j.worker, Steals: j.steals}, nil
}

// Result proxies the final result from the job's worker.
func (c *Coordinator) Result(ctx context.Context, id string) (serve.Result, error) {
	_, ws, err := c.job(id)
	if err != nil {
		return serve.Result{}, err
	}
	if ws == nil {
		return serve.Result{}, ErrUnroutable
	}
	var res serve.Result
	if err := ws.cl.GetJSON(ctx, "/jobs/"+id+"/result", &res); err != nil {
		return serve.Result{}, err
	}
	return res, nil
}

// Cancel proxies a cancellation to the job's worker.
func (c *Coordinator) Cancel(ctx context.Context, id string) error {
	_, ws, err := c.job(id)
	if err != nil {
		return err
	}
	if ws == nil {
		return ErrUnroutable
	}
	return ws.cl.PostJSON(ctx, "/jobs/"+id+"/cancel", nil, nil)
}

// Checkpoint fetches the job's latest durable checkpoint bytes from its
// worker, falling back to the coordinator's own mirror when the worker is
// gone.
func (c *Coordinator) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	j, ws, err := c.job(id)
	if err != nil {
		return nil, err
	}
	if ws != nil {
		if data, err := ws.cl.GetBytes(ctx, "/jobs/"+id+"/checkpoint"); err == nil {
			return data, nil
		} else if client.IsStatus(err, http.StatusNotFound) {
			return nil, fmt.Errorf("%w: no checkpoint yet", ErrNotFound)
		}
	}
	data, rerr := os.ReadFile(c.mirrorCkptPath(j.id))
	if rerr != nil {
		return nil, fmt.Errorf("%w: no live worker and no mirror", ErrUnroutable)
	}
	return data, nil
}
