//! A `gdim serve` process owned by a test.

use std::ops::{Deref, DerefMut};
use std::process::Child;

/// A spawned server that is killed and reaped when dropped, so a test
/// that fails between spawning it and stopping it leaves no server
/// listening. Derefs to the [`Child`].
pub struct ServeChild(pub Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        // Both are no-ops once the server has exited and been reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for ServeChild {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for ServeChild {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}
