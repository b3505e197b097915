//! The fixed twin of `lock_scope_bad.rs`: take what you need under the
//! lock, release it, then do the socket I/O.
//! The `lock-scope` lint must stay quiet.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

struct State {
    frames: Vec<Vec<u8>>,
}

fn broadcast(state: &Mutex<State>, sock: &mut TcpStream) {
    let frames: Vec<Vec<u8>> = {
        let mut st = state.lock().unwrap();
        st.frames.drain(..).collect()
    };
    for frame in frames {
        if sock.write_all(&frame).is_err() {
            return;
        }
    }
}

fn explicit_drop(state: &Mutex<State>, sock: &mut TcpStream) {
    let mut st = state.lock().unwrap();
    let frame = st.frames.pop().unwrap_or_default();
    drop(st);
    let _ = sock.write_all(&frame);
}
