//! The map type behind a [`super::StorageManager`]'s arrays and edges: a
//! fixed number of copy-on-write shards, so epochs share their maps.
//!
//! Cloning a [`ShardedMap`] bumps one reference count. An insert into a map
//! some other epoch still shares copies the shard table (`SHARDS` pointers)
//! and the one shard the key lands in — about `1 / SHARDS` of the entries,
//! each a reference-count bump, since keys and values are `Arc`s. An insert
//! into a map nobody shares (a plain [`crate::api::Dslog`]) copies nothing.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Shards per map. 64 keeps a shard of the largest benchmark database
/// (about 2 000 arrays) near 30 entries.
const SHARDS: usize = 64;

/// The shard `key` lives in. The shard hasher is unkeyed, so every epoch
/// of a map agrees on it; each shard's own `HashMap` keeps its random
/// keys, so crafted names can at worst crowd one shard (a full copy per
/// insert, as an unsharded map would make), never collide inside one.
fn shard_of<Q: Hash + ?Sized>(key: &Q) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % SHARDS as u64) as usize
}

/// A hash map whose clone is O(1) and whose insert copies at most one shard
/// (see the module docs).
#[derive(Debug)]
pub(crate) struct ShardedMap<K, V> {
    shards: Arc<[Arc<HashMap<K, V>>; SHARDS]>,
    len: usize,
}

impl<K, V> Clone for ShardedMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            shards: Arc::clone(&self.shards),
            len: self.len,
        }
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        let empty = Arc::new(HashMap::new());
        Self {
            shards: Arc::new(std::array::from_fn(|_| Arc::clone(&empty))),
            len: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// The entry stored under `key`, looked up by any borrowed form of it.
    pub(crate) fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[shard_of(key)].get_key_value(key)
    }

    /// The value stored under `key`.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// Store `value` under `key`, returning what it replaced. Copies the
    /// key's shard only while another epoch shares it.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let shard = &mut Arc::make_mut(&mut self.shards)[shard_of(&key)];
        let old = Arc::make_mut(shard).insert(key, value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every entry, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_every_shard_until_an_insert_copies_one() {
        let mut a: ShardedMap<Arc<str>, Arc<u32>> = ShardedMap::default();
        for i in 0..500u32 {
            a.insert(Arc::from(i.to_string()), Arc::new(i));
        }
        assert_eq!(a.len(), 500);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.shards, &b.shards));
        a.insert(Arc::from("new"), Arc::new(9));
        a.insert(Arc::from("7"), Arc::new(70));
        assert_eq!((a.len(), b.len()), (501, 500));
        assert_eq!((a.get("new"), b.get("new")), (Some(&Arc::new(9)), None));
        assert_eq!((**a.get("7").unwrap(), **b.get("7").unwrap()), (70, 7));
        // Only the shards the two inserts touched were copied.
        let copied = (a.shards.iter().zip(b.shards.iter()))
            .filter(|(x, y)| !Arc::ptr_eq(x, y))
            .count();
        assert!((1..=2).contains(&copied), "{copied} shards copied");
        // Values are shared, not copied, by the shard copy.
        let (x, y) = (a.get("8").unwrap(), b.get("8").unwrap());
        assert!(Arc::ptr_eq(x, y));
        assert_eq!(a.iter().count(), 501);
    }

    #[test]
    fn an_unshared_map_inserts_in_place() {
        let mut a: ShardedMap<u32, u32> = ShardedMap::default();
        a.insert(1, 1);
        let shard = Arc::as_ptr(&a.shards[shard_of(&1u32)]);
        a.insert(1, 2);
        assert_eq!(Arc::as_ptr(&a.shards[shard_of(&1u32)]), shard);
        assert_eq!((a.len(), a.get(&1)), (1, Some(&2)));
    }
}
