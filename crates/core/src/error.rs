use gana_gnn::GnnError;
use gana_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Error type for the recognition pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Netlist-level failure (parse, flatten, preprocess).
    Netlist(NetlistError),
    /// GNN-level failure (shape mismatch, non-finite values).
    Gnn(GnnError),
    /// The pipeline was configured inconsistently.
    InvalidConfig(String),
    /// The circuit still contains a subcircuit instance; recognition needs
    /// a flat circuit (`gana_netlist::flatten`).
    Unflattened {
        /// Name of the first `X` instance found.
        instance: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::Gnn(e) => write!(f, "gnn error: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid pipeline configuration: {msg}"),
            CoreError::Unflattened { instance } => write!(
                f,
                "circuit is not flattened: subcircuit instance {instance} remains \
                 (flatten the netlist before recognition)"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Netlist(e) => Some(e),
            CoreError::Gnn(e) => Some(e),
            CoreError::InvalidConfig(_) | CoreError::Unflattened { .. } => None,
        }
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<GnnError> for CoreError {
    fn from(e: GnnError) -> Self {
        CoreError::Gnn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_sources() {
        let e: CoreError = NetlistError::Semantic("x".to_string()).into();
        assert!(e.to_string().contains("netlist error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
