//! Who gets in, who is shed, and which event happens next: the one
//! admission policy and virtual-time event order under both serving loops,
//! [`Engine::run`](crate::engine::Engine::run) and
//! [`Router::run_with_updates`](crate::router::Router::run_with_updates).
//!
//! ## Policy
//!
//! Requests are taken in `(arrival, index)` order. An arrival is checked
//! against its tenant's quota first ([`ServeError::QuotaExceeded`], even
//! when the queue has room), then queued if the bounded queue has room.
//! At a full queue a [`Priority::High`] arrival evicts the *newest* queued
//! [`Priority::Low`] request and takes its place; any other arrival is
//! itself rejected ([`ServeError::Overloaded`] either way). This is the
//! only place in the crate that builds those two errors or bumps the
//! `serve/query/{rejected,quota_rejected,shed_low}` counters.
//!
//! ## Event order
//!
//! The caller says when it could start the queue's head (`ready`: the
//! engine's earliest-free worker, the tier's busiest-shard best-replica
//! clock). The head dispatches at `t0 = max(ready, its arrival)` iff no
//! request arrives before `t0`; otherwise the next arrival is admitted;
//! with neither left the run is done. What a dispatch *does* — batching and
//! worker clocks, or routing and failover — stays with the caller.

use crate::engine::{Priority, Rejection, Request};
use crate::error::ServeError;
use std::collections::{BTreeMap, VecDeque};
use tucker_mpisim::MetricsRegistry;

/// The next thing a serving loop does, and when.
pub(crate) struct Event {
    /// Virtual time of the event: a dispatch's start `t0`, or an arrival.
    pub at: f64,
    pub step: Step,
}

/// The two kinds of [`Event`].
pub(crate) enum Step {
    /// Serve request `head` — already off the queue — starting at `at`.
    Dispatch { head: usize },
    /// A request arrived at `at` and met this outcome.
    Arrival(Outcome),
}

/// What admission did with one arrival. Rejections are already recorded
/// and counted; the payloads are what a caller needs to log them.
pub(crate) enum Outcome {
    /// Queued.
    Queued,
    /// Rejected: its tenant's quota of `queued` waiting requests was full.
    QuotaRejected { index: usize, queued: usize },
    /// Queued in place of `victim`, the newest low-priority request.
    ShedLow { victim: usize, evicted_for: usize },
    /// Rejected at a full queue of `queued` requests.
    Rejected { index: usize, queued: usize },
}

/// Admission state of one run over `requests`.
pub(crate) struct Admission<'a> {
    requests: &'a [Request],
    capacity: usize,
    tenant_quota: Option<usize>,
    /// Request indices by `(arrival, index)`; `order[next..]` are yet to arrive.
    order: Vec<usize>,
    next: usize,
    queue: VecDeque<usize>,
    queued_by_tenant: BTreeMap<usize, usize>,
    rejections: Vec<Rejection>,
    makespan: f64,
}

impl<'a> Admission<'a> {
    pub(crate) fn new(
        requests: &'a [Request],
        capacity: usize,
        tenant_quota: Option<usize>,
    ) -> Self {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        // Stable, so tied arrivals stay in index order.
        order.sort_by(|&a, &b| {
            requests[a].arrival.partial_cmp(&requests[b].arrival).expect("finite arrivals")
        });
        Admission {
            requests,
            capacity,
            tenant_quota,
            order,
            next: 0,
            queue: VecDeque::new(),
            queued_by_tenant: BTreeMap::new(),
            rejections: Vec::new(),
            makespan: 0.0,
        }
    }

    /// The request at the head of the queue, whose `ready` time the next
    /// [`Admission::next_event`] wants.
    pub(crate) fn head(&self) -> Option<&'a Request> {
        self.queue.front().map(|&i| &self.requests[i])
    }

    /// Advance by one event; `None` once no arrivals are left and the queue
    /// is empty. `ready` is the earliest time the caller could start the
    /// queue's head (ignored while the queue is empty).
    pub(crate) fn next_event(
        &mut self,
        ready: f64,
        metrics: &mut MetricsRegistry,
    ) -> Option<Event> {
        let arrival = self.order.get(self.next).map(|&i| self.requests[i].arrival);
        if let Some(&head) = self.queue.front() {
            let t0 = ready.max(self.requests[head].arrival);
            if arrival.is_none_or(|at| t0 <= at) {
                self.dequeue(0);
                return Some(Event { at: t0, step: Step::Dispatch { head } });
            }
        }
        arrival.map(|at| Event { at, step: Step::Arrival(self.admit(metrics)) })
    }

    /// Move queued requests that `rides_along` (in queue order) into `batch`
    /// until it holds `limit`.
    pub(crate) fn pull_into_batch(
        &mut self,
        batch: &mut Vec<usize>,
        limit: usize,
        mut rides_along: impl FnMut(&Request) -> bool,
    ) {
        let mut i = 0;
        while i < self.queue.len() && batch.len() < limit {
            if rides_along(&self.requests[self.queue[i]]) {
                batch.push(self.dequeue(i));
            } else {
                i += 1;
            }
        }
    }

    /// A dispatch finished at `finish`: the run lasts at least that long.
    pub(crate) fn note_finish(&mut self, finish: f64) {
        self.makespan = self.makespan.max(finish);
    }

    /// Every rejection, in the order it happened, and the makespan: the
    /// latest arrival or reported finish.
    pub(crate) fn finish(self) -> (Vec<Rejection>, f64) {
        (self.rejections, self.makespan)
    }

    /// Apply the policy to the next arrival.
    fn admit(&mut self, metrics: &mut MetricsRegistry) -> Outcome {
        let index = self.order[self.next];
        self.next += 1;
        let req = &self.requests[index];
        self.makespan = self.makespan.max(req.arrival);
        let tenant_queued = self.queued_by_tenant.get(&req.tenant).copied().unwrap_or(0);
        let over_quota = self.tenant_quota.filter(|&quota| tenant_queued >= quota);
        if over_quota.is_none() && self.queue.len() < self.capacity {
            self.enqueue(index);
            return Outcome::Queued;
        }
        metrics.counter_add("serve/query/rejected", 1);
        if let Some(quota) = over_quota {
            metrics.counter_add("serve/query/quota_rejected", 1);
            let error =
                ServeError::QuotaExceeded { tenant: req.tenant, queued: tenant_queued, quota };
            self.reject(index, error);
            return Outcome::QuotaRejected { index, queued: tenant_queued };
        }
        // Full queue. Shed low first: a high-priority arrival evicts the
        // newest queued low-priority request; otherwise the arrival itself
        // is rejected.
        let newest_low = (req.priority == Priority::High)
            .then(|| self.queue.iter().rposition(|&q| self.requests[q].priority == Priority::Low))
            .flatten();
        let queued = self.queue.len();
        let error = ServeError::Overloaded { queued, capacity: self.capacity };
        match newest_low {
            Some(pos) => {
                metrics.counter_add("serve/query/shed_low", 1);
                let victim = self.dequeue(pos);
                self.reject(victim, error);
                self.enqueue(index);
                Outcome::ShedLow { victim, evicted_for: index }
            }
            None => {
                self.reject(index, error);
                Outcome::Rejected { index, queued }
            }
        }
    }

    fn enqueue(&mut self, index: usize) {
        self.queue.push_back(index);
        *self.queued_by_tenant.entry(self.requests[index].tenant).or_insert(0) += 1;
    }

    fn dequeue(&mut self, pos: usize) -> usize {
        let index = self.queue.remove(pos).expect("position is in the queue");
        let tenant = self.requests[index].tenant;
        *self.queued_by_tenant.get_mut(&tenant).expect("every queued request is counted") -= 1;
        index
    }

    fn reject(&mut self, index: usize, error: ServeError) {
        self.rejections.push(Rejection { index, arrival: self.requests[index].arrival, error });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    /// One request per `(arrival, tenant, priority)`; the query is never read.
    fn requests(spec: &[(f64, usize, Priority)]) -> Vec<Request> {
        spec.iter()
            .map(|&(arrival, tenant, priority)| Request {
                arrival,
                query: Query { sel: Vec::new() },
                tenant,
                priority,
            })
            .collect()
    }

    /// Admit every arrival past a head that is never ready, returning what
    /// each met.
    fn admit_all(adm: &mut Admission, metrics: &mut MetricsRegistry) -> Vec<Outcome> {
        (0..adm.requests.len())
            .map(|_| match adm.next_event(f64::INFINITY, metrics) {
                Some(Event { step: Step::Arrival(outcome), .. }) => outcome,
                _ => panic!("an arrival is due before the head can start"),
            })
            .collect()
    }

    use Priority::{High, Low};

    #[test]
    fn quota_fires_before_capacity() {
        // Capacity 1 is full and tenant 7 is at its quota of 1: the typed
        // error is the tenant's, not the queue's.
        let reqs = requests(&[(0.0, 7, High), (1.0, 7, High), (2.0, 8, High)]);
        let mut metrics = MetricsRegistry::default();
        let mut adm = Admission::new(&reqs, 1, Some(1));
        let outcomes = admit_all(&mut adm, &mut metrics);
        assert!(matches!(outcomes[0], Outcome::Queued));
        assert!(matches!(outcomes[1], Outcome::QuotaRejected { index: 1, queued: 1 }));
        assert!(matches!(outcomes[2], Outcome::Rejected { index: 2, queued: 1 }));
        let (rejections, makespan) = adm.finish();
        assert!(matches!(
            rejections[0].error,
            ServeError::QuotaExceeded { tenant: 7, queued: 1, quota: 1 }
        ));
        assert!(matches!(rejections[1].error, ServeError::Overloaded { queued: 1, capacity: 1 }));
        assert_eq!(makespan, 2.0, "rejected arrivals still advance the clock");
        assert_eq!(metrics.counter("serve/query/rejected"), 2);
        assert_eq!(metrics.counter("serve/query/quota_rejected"), 1);
        assert_eq!(metrics.counter("serve/query/shed_low"), 0);
    }

    #[test]
    fn high_arrival_at_a_full_queue_evicts_the_newest_low() {
        let reqs = requests(&[(0.0, 1, Low), (1.0, 2, High), (2.0, 3, Low), (3.0, 4, High)]);
        let mut metrics = MetricsRegistry::default();
        let mut adm = Admission::new(&reqs, 3, None);
        let outcomes = admit_all(&mut adm, &mut metrics);
        assert!(matches!(outcomes[3], Outcome::ShedLow { victim: 2, evicted_for: 3 }));
        assert_eq!(adm.queue, [0, 1, 3], "request 2, not the older low 0, made room");
        assert_eq!(adm.queued_by_tenant[&3], 0, "the victim's tenant gets its slot back");
        assert_eq!(adm.queued_by_tenant[&4], 1);
        assert_eq!(metrics.counter("serve/query/shed_low"), 1);
        assert_eq!(metrics.counter("serve/query/rejected"), 1);
        let (rejections, _) = adm.finish();
        assert_eq!((rejections[0].index, rejections[0].arrival), (2, 2.0));
        assert!(matches!(rejections[0].error, ServeError::Overloaded { queued: 3, capacity: 3 }));
    }

    #[test]
    fn low_arrival_at_a_full_queue_is_the_one_rejected() {
        let reqs = requests(&[(0.0, 1, Low), (1.0, 1, High), (2.0, 1, Low)]);
        let mut metrics = MetricsRegistry::default();
        let mut adm = Admission::new(&reqs, 2, None);
        let outcomes = admit_all(&mut adm, &mut metrics);
        assert!(matches!(outcomes[2], Outcome::Rejected { index: 2, queued: 2 }));
        assert_eq!(adm.queue, [0, 1], "a low arrival sheds nobody");
        assert_eq!(metrics.counter("serve/query/shed_low"), 0);
    }

    #[test]
    fn zero_capacity_rejects_everything_and_terminates() {
        let reqs = requests(&[(0.0, 1, High), (0.5, 2, Low), (1.0, 3, High)]);
        let mut metrics = MetricsRegistry::default();
        let mut adm = Admission::new(&reqs, 0, None);
        for index in 0..3 {
            // A ready worker changes nothing: there is never a head.
            let event = adm.next_event(0.0, &mut metrics).expect("an arrival is due");
            assert!(matches!(
                event.step,
                Step::Arrival(Outcome::Rejected { index: i, queued: 0 }) if i == index
            ));
        }
        assert!(adm.next_event(0.0, &mut metrics).is_none());
        assert_eq!(adm.finish().0.len(), 3);
    }

    #[test]
    fn tied_arrivals_admit_in_index_order() {
        // Submitted out of order; 0, 2 and 3 tie at t = 1.
        let reqs = requests(&[(1.0, 0, High), (0.5, 0, High), (1.0, 0, High), (1.0, 0, High)]);
        let mut metrics = MetricsRegistry::default();
        let mut adm = Admission::new(&reqs, usize::MAX, None);
        assert_eq!(adm.order, [1, 0, 2, 3]);
        let mut next = |ready: f64| {
            let Event { at, step } = adm.next_event(ready, &mut metrics).expect("not done");
            match step {
                Step::Dispatch { head } => (at, Some(head)),
                Step::Arrival(_) => (at, None),
            }
        };
        assert_eq!(next(0.0), (0.5, None));
        // The head is ready at its arrival, before the tie: it goes first...
        assert_eq!(next(0.0), (0.5, Some(1)));
        assert_eq!(next(0.7), (1.0, None));
        // ...and a head ready exactly at the tie dispatches before the tied
        // arrivals are admitted (`t0 <= at`), so it cannot batch with them.
        assert_eq!(next(0.7), (1.0, Some(0)));
        assert_eq!((next(1.5), next(1.5)), ((1.0, None), (1.0, None)));
        assert_eq!(adm.queue, [2, 3]);
        let mut batch = Vec::new();
        adm.pull_into_batch(&mut batch, 1, |_| true);
        assert_eq!((batch, adm.queued_by_tenant[&0]), (vec![2], 1));
    }
}
