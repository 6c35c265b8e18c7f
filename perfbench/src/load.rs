//! Open-loop load over HTTP from this process.
//!
//! Requests are planned ahead with a scheduled send time. At most
//! `nproc` lanes send them, each one thread holding at most one
//! connection, from one shared queue in schedule order: a free lane
//! takes the next request and sends it when it is due, so a request
//! waits for a lane only while every lane is busy, as it would for a
//! pool of independent users. Latency runs from the scheduled time, so
//! a stall delays every request queued behind it. The generator lag is
//! how late a request went out after it was both due and its lane was
//! free: the generator's own lateness, not the wait for the system,
//! which latency already counts.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Lead time before the first scheduled send, so every lane is parked
/// and waiting when the clock starts.
const START_DELAY: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

pub struct Planned {
    pub at: Duration,
    pub kind: Kind,
    /// Well id read, or the synthetic well written.
    pub key: i64,
    pub raw: String,
}

pub struct Reply {
    pub at: Duration,
    pub kind: Kind,
    pub key: i64,
    /// Scheduled send to last byte of the reply.
    pub latency: Duration,
    /// Actual send minus the later of the scheduled send and the end
    /// of the lane's previous request.
    pub lag: Duration,
    /// Send to last byte of the reply.
    pub service: Duration,
    /// 0 when the connection failed.
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    pub fn latency_ms(&self) -> f64 {
        self.latency.as_secs_f64() * 1e3
    }
}

pub fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
}

pub fn post_json(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

pub fn marginal_path(relation: &str, id: i64) -> String {
    format!("/v1/marginal/{relation}?args={id}")
}

/// One request on a fresh connection (the server closes after every
/// response). Returns status 0 on any socket error.
pub fn exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
    fn inner(addr: SocketAddr, raw: &str) -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(raw.as_bytes())?;
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf)?;
        Ok(buf)
    }
    let Ok(buf) = inner(addr, raw) else {
        return (0, String::new());
    };
    let text = String::from_utf8_lossy(&buf);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return (0, String::new());
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, body.to_owned())
}

/// Sends `plan`, sorted by scheduled time, on `lanes` threads and
/// returns the replies in plan order. Writes go out one at a time in
/// plan order, so a retract never overtakes its insert. Each request is
/// a `serve.request` span whose request id is `first_request` plus its
/// plan index.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    lanes: usize,
    tracer: &Tracer,
    first_request: u64,
) -> Vec<Reply> {
    debug_assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
    // Writes planned before each request: a write's ordinal among them.
    let mut writes = 0usize;
    let write_ordinal: Vec<usize> = plan
        .iter()
        .map(|p| {
            let before = writes;
            writes += usize::from(p.kind == Kind::Write);
            before
        })
        .collect();
    let writes_done = (Mutex::new(0usize), Condvar::new());
    let next = AtomicUsize::new(0);
    let start = Instant::now() + START_DELAY;
    let mut slots: Vec<Option<Reply>> = (0..plan.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes.max(1))
            .map(|_| {
                let (next, writes_done, write_ordinal) = (&next, &writes_done, &write_ordinal);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut free = start;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + p.at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let write = p.kind == Kind::Write;
                        if write {
                            let (done, cv) = writes_done;
                            let mut n = done.lock().expect("write order lock");
                            while *n < write_ordinal[i] {
                                n = cv.wait(n).expect("write order lock");
                            }
                        }
                        let sent = Instant::now();
                        let (status, body) =
                            tracer.span("serve.request", None, first_request + i as u64, || {
                                exchange(addr, &p.raw)
                            });
                        let done = Instant::now();
                        if write {
                            let (n, cv) = writes_done;
                            *n.lock().expect("write order lock") += 1;
                            cv.notify_all();
                        }
                        let ready = due.max(free);
                        free = done;
                        out.push((
                            i,
                            Reply {
                                at: p.at,
                                kind: p.kind,
                                key: p.key,
                                latency: done.saturating_duration_since(due),
                                lag: sent.saturating_duration_since(ready),
                                service: done - sent,
                                status,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, reply) in h.join().expect("load lane panicked") {
                slots[i] = Some(reply);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every planned request has a reply"))
        .collect()
}

/// Arrivals at `rate` per second over `window`, each gap drawn
/// uniformly from half to one and a half times the mean. The random
/// gaps keep sends from beating against the server's 10 ms accept poll,
/// as evenly spaced sends would; their lower bound keeps out the bursts
/// of a Poisson process, whose few largest would queue on the lanes
/// and decide the p99 of a whole run.
pub fn arrivals(rate: f64, window: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.gen_range(0.5..1.5) / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Highest rate on `ladder` whose p99 latency stays under `limit` with
/// no growing backlog, i.e. every request of the step done within
/// `limit` of the step's end. Stops at the first step that fails and
/// returns 0 if the lowest one does. `request(i)` gives the i-th read
/// of the whole ladder.
#[allow(clippy::too_many_arguments)]
pub fn max_rate(
    addr: SocketAddr,
    ladder: &[f64],
    step: Duration,
    limit: Duration,
    lanes: usize,
    tracer: &Tracer,
    rng: &mut StdRng,
    request: &mut dyn FnMut(usize) -> (i64, String),
) -> (f64, Vec<Reply>) {
    let mut best = 0.0;
    let mut all = Vec::new();
    let mut next = 0usize;
    for &rate in ladder {
        let plan: Vec<Planned> = arrivals(rate, step, rng)
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let (key, raw) = request(next + i);
                Planned {
                    at,
                    kind: Kind::Read,
                    key,
                    raw,
                }
            })
            .collect();
        let replies = run(addr, &plan, lanes, tracer, next as u64);
        next += plan.len();
        let lat: Vec<f64> = replies
            .iter()
            .map(|r| {
                if r.ok() {
                    r.latency.as_secs_f64()
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let p99 = crate::report::percentile(&lat, 99.0);
        let backlog = replies.iter().any(|r| r.at + r.latency > step + limit);
        all.extend(replies);
        if p99 > limit.as_secs_f64() || backlog {
            break;
        }
        best = rate;
    }
    (best, all)
}

/// A read plan over `ids` with arrivals at `rate` per second
/// over `window`; returns it and the ids left.
pub fn read_plan<'a>(
    ids: &'a [i64],
    rate: f64,
    window: Duration,
    rng: &mut StdRng,
    relation: &str,
) -> (Vec<Planned>, &'a [i64]) {
    let times = arrivals(rate, window, rng);
    let n = times.len().min(ids.len());
    let plan = times
        .into_iter()
        .zip(ids)
        .map(|(at, &id)| Planned {
            at,
            kind: Kind::Read,
            key: id,
            raw: get(&marginal_path(relation, id)),
        })
        .collect();
    (plan, &ids[n..])
}

/// `GET /metrics`, parsed into `name -> value` for unlabelled samples.
pub fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let (_, body) = exchange(addr, &get("/metrics"));
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Difference of one scraped value between two scrapes.
pub fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
