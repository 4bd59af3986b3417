//! Robot identifiers.

use std::fmt;

/// Identifier of a robot.
///
/// The robots of the paper are anonymous and indistinguishable; identifiers
/// exist purely so the *simulator* can address robots ("used only for
/// reference purposes" in the paper's words). The local algorithm never
/// receives an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RobotId(pub usize);

impl fmt::Display for RobotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", RobotId(7)), "r7");
    }
}
