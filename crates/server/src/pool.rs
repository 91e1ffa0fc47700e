//! The fixed worker pool and its bounded accept queue.
//!
//! The accept loop never blocks on a slow handler: accepted connections go
//! through a bounded [`std::sync::mpsc::sync_channel`], and when every
//! worker is busy *and* the queue is full the connection is refused on the
//! spot (`try_dispatch` hands it back so the caller can answer `429 Too
//! Many Requests`). A `queue` of `0` makes the channel a rendezvous: a
//! connection is admitted only when a worker is already waiting for it —
//! the strictest admission policy, and the one the saturation tests use.
//!
//! Shutdown is graceful by construction: dropping the sender ends the
//! channel, each worker drains whatever was already queued, finishes its
//! in-flight connection, and returns; `shutdown` then joins them all.

use std::net::TcpStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

/// A fixed pool of worker threads consuming accepted connections from a
/// bounded queue.
pub struct WorkerPool {
    sender: Option<SyncSender<TcpStream>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each running `handler` on every connection
    /// it dequeues. `queue` bounds how many accepted-but-unserved
    /// connections may wait (0 = rendezvous, nothing waits).
    pub fn start<F>(workers: usize, queue: usize, handler: Arc<F>) -> Self
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let (sender, receiver) = sync_channel::<TcpStream>(queue);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = receiver.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("qb2olap-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &*handler))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Hands a connection to the pool. On saturation (queue full or pool
    /// shut down) the connection comes back to the caller, which owes the
    /// client an explicit refusal.
    pub fn try_dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let Some(sender) = &self.sender else {
            return Err(stream);
        };
        try_send(sender, stream)
    }

    /// A cloneable submit-only handle for the accept loop. The pool itself
    /// stays with its owner, whose `shutdown` must drop the **last** sender
    /// to close the queue — so every `Dispatcher` must be gone (the accept
    /// thread joined) before calling it.
    pub fn dispatcher(&self) -> Dispatcher {
        Dispatcher {
            sender: self
                .sender
                .clone()
                .expect("dispatcher requested after shutdown"),
        }
    }

    /// Closes the queue and waits for every worker to drain it and finish
    /// in-flight work.
    pub fn shutdown(mut self) {
        self.sender.take(); // close the channel; workers exit after draining
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The sender half of a pool's queue; see [`WorkerPool::dispatcher`].
#[derive(Clone)]
pub struct Dispatcher {
    sender: SyncSender<TcpStream>,
}

impl Dispatcher {
    /// Same contract as [`WorkerPool::try_dispatch`].
    pub fn try_dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        try_send(&self.sender, stream)
    }
}

fn try_send(sender: &SyncSender<TcpStream>, stream: TcpStream) -> Result<(), TcpStream> {
    sender.try_send(stream).map_err(|e| match e {
        TrySendError::Full(stream) => stream,
        TrySendError::Disconnected(stream) => stream,
    })
}

fn worker_loop<F: Fn(TcpStream)>(receiver: &Mutex<Receiver<TcpStream>>, handler: &F) {
    loop {
        // Hold the lock only while dequeueing, never while serving.
        let next = receiver.lock().recv();
        match next {
            // A panicking handler loses only its connection (unwinding
            // drops the stream); the worker goes back to `recv`.
            Ok(stream) => {
                let _ = panic::catch_unwind(AssertUnwindSafe(|| handler(stream)));
            }
            Err(_) => return, // sender dropped and queue drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn connected_pair(listener: &TcpListener) -> TcpStream {
        TcpStream::connect(listener.local_addr().unwrap()).unwrap()
    }

    #[test]
    fn pool_runs_handlers_and_drains_on_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let handler = {
            let served = served.clone();
            Arc::new(move |_stream: TcpStream| {
                served.fetch_add(1, Ordering::SeqCst);
            })
        };
        let pool = WorkerPool::start(2, 8, handler);
        for _ in 0..5 {
            let client = connected_pair(&listener);
            let (server_side, _) = listener.accept().unwrap();
            pool.try_dispatch(server_side).expect("queue has room");
            drop(client);
        }
        // shutdown drains everything that was queued before returning.
        pool.shutdown();
        assert_eq!(served.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn a_panicking_handler_does_not_shrink_the_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let handler = {
            let calls = calls.clone();
            Arc::new(move |_stream: TcpStream| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("handler panics on the first stream");
                }
            })
        };
        // One worker: if the panic killed it, nobody would serve the second
        // stream.
        let pool = WorkerPool::start(1, 8, handler);
        for _ in 0..2 {
            let client = connected_pair(&listener);
            let (server_side, _) = listener.accept().unwrap();
            pool.try_dispatch(server_side).expect("queue has room");
            drop(client);
        }
        pool.shutdown();
        let served = calls.load(Ordering::SeqCst);
        assert_eq!(served, 2, "the second stream is served too");
    }

    #[test]
    fn rendezvous_queue_refuses_when_workers_are_busy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let block_rx = Mutex::new(block_rx);
        let (holding_tx, holding_rx) = std::sync::mpsc::channel::<()>();
        let holding_tx = Mutex::new(holding_tx);
        let handler = Arc::new(move |_stream: TcpStream| {
            // Tell the test the single worker holds a stream (so it is not
            // in `recv`), then park it until the test releases it.
            holding_tx.lock().send(()).unwrap();
            let _ = block_rx.lock().recv_timeout(Duration::from_secs(5));
        });
        let pool = WorkerPool::start(1, 0, handler);

        // First connection occupies the worker, once the freshly spawned
        // thread has reached its `recv` (a rendezvous send before that
        // finds nobody listening)...
        let _c1 = connected_pair(&listener);
        let (mut s1, _) = listener.accept().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while let Err(back) = pool.try_dispatch(s1) {
            assert!(std::time::Instant::now() < deadline, "a worker is waiting");
            s1 = back;
            std::thread::yield_now();
        }
        // ... and once the handler says it holds that stream, the
        // rendezvous channel has nobody listening: dispatch must hand the
        // next stream back.
        holding_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker picked the first connection up");
        let _c2 = connected_pair(&listener);
        let (s2, _) = listener.accept().unwrap();
        assert!(pool.try_dispatch(s2).is_err(), "saturated pool refuses");

        block_tx.send(()).unwrap();
        pool.shutdown();
    }
}
