//! Minimized bad twin of the lock-scope lint: frames are written to a
//! socket while a shared lock is held, so one peer that stops reading
//! its socket stalls every thread that needs the lock.
//! The `lock-scope` lint must fire on the `write_all` under the guard.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

struct State {
    frames: Vec<Vec<u8>>,
}

fn broadcast(state: &Mutex<State>, sock: &mut TcpStream) {
    let mut st = state.lock().unwrap();
    for frame in st.frames.drain(..) {
        if sock.write_all(&frame).is_err() {
            return;
        }
    }
}
