//! EPC-bounded in-enclave key–value store.
//!
//! §5 of the paper: "An in-memory key-value store in the EPC (Enclave Page
//! Cache) holds the information necessary for handling requests responses
//! on their way back from the LRS." The EPC is a scarce resource (tens to
//! low hundreds of MiB on the paper's hardware), so the store accounts for
//! its footprint and rejects inserts that would exceed its capacity instead
//! of silently paging — paging would both destroy performance and create a
//! side channel.

use std::collections::HashMap;

/// Errors from the bounded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpcError {
    /// Inserting would exceed the configured EPC budget.
    Full {
        /// Bytes the insert needed.
        needed: usize,
        /// Bytes still available.
        available: usize,
    },
}

impl std::fmt::Display for EpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpcError::Full { needed, available } => {
                write!(
                    f,
                    "EPC budget exceeded: need {needed} bytes, {available} available"
                )
            }
        }
    }
}

impl std::error::Error for EpcError {}

/// A byte-budgeted key–value store living in (simulated) enclave memory.
///
/// Accounting is approximate but monotone: every entry is charged its key
/// and value lengths plus a fixed per-entry overhead.
///
/// # Examples
///
/// ```
/// use pprox_sgx::epc::EpcStore;
///
/// let mut store = EpcStore::with_capacity(1024);
/// store.insert(b"req-1".to_vec(), vec![0u8; 100])?;
/// assert!(store.get(b"req-1").is_some());
/// # Ok::<(), pprox_sgx::epc::EpcError>(())
/// ```
#[derive(Debug)]
pub struct EpcStore {
    map: HashMap<Vec<u8>, Vec<u8>>,
    capacity: usize,
    used: usize,
}

/// Fixed bookkeeping cost charged per entry.
const ENTRY_OVERHEAD: usize = 48;

impl EpcStore {
    /// Creates a store with a byte budget.
    pub fn with_capacity(capacity: usize) -> Self {
        EpcStore {
            map: HashMap::new(),
            capacity,
            used: 0,
        }
    }

    fn cost(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + ENTRY_OVERHEAD
    }

    /// Inserts an entry, replacing any previous value under the key.
    ///
    /// # Errors
    ///
    /// [`EpcError::Full`] when the new entry would exceed the budget; the
    /// store is unchanged in that case.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<(), EpcError> {
        let new_cost = Self::cost(&key, &value);
        let old_cost = self.map.get(&key).map(|v| Self::cost(&key, v)).unwrap_or(0);
        let projected = self.used - old_cost + new_cost;
        if projected > self.capacity {
            return Err(EpcError::Full {
                needed: new_cost,
                available: self.capacity - (self.used - old_cost),
            });
        }
        self.map.insert(key, value);
        self.used = projected;
        Ok(())
    }

    /// Looks up a value.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// Removes and returns an entry, releasing its budget.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let value = self.map.remove(key)?;
        self.used -= Self::cost(key, &value);
        Some(value)
    }

    /// Every live entry, in no particular order. Read-only: what an
    /// adversary who broke the enclave reads out of its memory.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Configured budget in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = EpcStore::with_capacity(10_000);
        s.insert(b"k".to_vec(), b"v".to_vec()).unwrap();
        assert_eq!(s.get(b"k"), Some(b"v".as_slice()));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(b"k"), Some(b"v".to_vec()));
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = EpcStore::with_capacity(200);
        s.insert(b"a".to_vec(), vec![0; 100]).unwrap();
        let err = s.insert(b"b".to_vec(), vec![0; 100]).unwrap_err();
        assert!(matches!(err, EpcError::Full { .. }));
        // Store unchanged on failure.
        assert_eq!(s.len(), 1);
        assert!(s.get(b"b").is_none());
    }

    #[test]
    fn replace_releases_old_budget() {
        let mut s = EpcStore::with_capacity(200);
        s.insert(b"a".to_vec(), vec![0; 120]).unwrap();
        // Replacing with a smaller value must succeed even though adding a
        // second 120-byte entry would not.
        s.insert(b"a".to_vec(), vec![0; 60]).unwrap();
        assert_eq!(s.get(b"a").unwrap().len(), 60);
        assert_eq!(s.used_bytes(), 1 + 60 + 48);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut s = EpcStore::with_capacity(100);
        assert_eq!(s.remove(b"x"), None);
    }

    #[test]
    fn budget_accounting_roundtrips() {
        let mut s = EpcStore::with_capacity(10_000);
        for i in 0u32..50 {
            s.insert(i.to_be_bytes().to_vec(), vec![0; i as usize])
                .unwrap();
        }
        for i in 0u32..50 {
            s.remove(&i.to_be_bytes());
        }
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn error_display() {
        let e = EpcError::Full {
            needed: 100,
            available: 10,
        };
        assert_eq!(
            e.to_string(),
            "EPC budget exceeded: need 100 bytes, 10 available"
        );
    }
}
