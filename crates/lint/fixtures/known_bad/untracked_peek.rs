//! Known-bad: a committed peek inside a dispatched transaction body. The
//! load is untracked, so on RTM the hardware holds a line the emulated
//! footprint (and the router) never counted.

pub fn relax(&self, sys: &TxnSystem, w: &mut Worker, v: u32, u: u32) {
    w.execute(4, &mut |ops| {
        let dv = ops.read(v, self.addr(v))?;
        // Filtering *inside* the body.
        if sys.peek_committed(u, self.addr(u)).is_some_and(|(du, _)| du <= dv) {
            return Ok(());
        }
        ops.write(u, self.addr(u), dv)
    });
}

pub fn probe(&self, sys: &TxnSystem, w: &mut Worker, v: u32) {
    w.execute_bounded(2, &mut |ops| {
        let seen = sys.peek_committed(v, self.addr(v));
        ops.read(v, self.addr(v)).map(|_| drop(seen))
    });
}
