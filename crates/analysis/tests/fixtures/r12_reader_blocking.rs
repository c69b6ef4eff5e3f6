// fixture-role: crates/wire/src/server.rs
// expect: R12
//
// R12: a connection reader blocks on nothing but its own socket read.
// Here it takes a mutex directly, and parks on the bounded job queue
// and sleeps via helpers it calls — all reachable from the `read_loop`
// root, all findings. A reader stuck in any of them leaves overload
// unanswered instead of answered `busy`.

fn read_loop(conn: &Conn, shared: &Shared, jobs: &Sender<Job>) {
    let conns = shared.conns.lock();
    enqueue(jobs, frame(conn));
    backoff();
}

fn enqueue(jobs: &Sender<Job>, job: Job) {
    let _ = jobs.send(job);
}

fn backoff() {
    std::thread::sleep(Duration::from_millis(5));
}

// A request's continuation (here `Reply::send`, a continuation root)
// may take the connection's writer lock and answer through a reply
// handle — neither is a finding — but may not wait on a channel.
fn send(reply: Reply, done: &Sender<()>) {
    let alive = reply.conn.writer.lock();
    reply.send(Ok(Vec::new()));
    let _ = done.send(());
}
