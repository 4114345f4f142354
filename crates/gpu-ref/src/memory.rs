//! Host ↔ device transfer accounting.
//!
//! "Memory is allocated on both host and device memory … we copy all data from host
//! to device memory … we avoid data domain decomposition and avoid frequent data
//! transfers between host and device memory" (§IV).  The reference implementation
//! transfers everything once up front and the solution once at the end; this module
//! counts those bytes for the report's device section.

/// Running totals of host↔device traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostDeviceTransfers {
    /// Bytes copied host → device.
    pub host_to_device_bytes: usize,
    /// Bytes copied device → host.
    pub device_to_host_bytes: usize,
}

impl HostDeviceTransfers {
    /// Record a host → device copy.
    pub fn record_host_to_device(&mut self, bytes: usize) {
        self.host_to_device_bytes += bytes;
    }

    /// Record a device → host copy.
    pub fn record_device_to_host(&mut self, bytes: usize) {
        self.device_to_host_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let mut t = HostDeviceTransfers::default();
        t.record_host_to_device(1000);
        t.record_host_to_device(500);
        t.record_device_to_host(200);
        assert_eq!(t.host_to_device_bytes, 1500);
        assert_eq!(t.device_to_host_bytes, 200);
    }
}
