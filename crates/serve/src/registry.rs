use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

use ember_rbm::Rbm;

use crate::ServeError;

/// A snapshot of one registry entry: the model parameters (shared, never
/// mutated in place) and the version they were published under.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The model parameters at this version.
    pub rbm: Arc<Rbm>,
    /// Monotonically increasing version, starting at 1 on registration.
    pub version: u64,
}

/// Observer of successful publications: called with `(name, version)`
/// after every register/publish/rollback/restore lands. Installed by
/// the persistence layer (`ember_store`'s snapshot daemon) to trigger
/// on-publish snapshots.
pub type PublishHook = Box<dyn Fn(&str, u64) + Send + Sync>;

/// One registry entry: the current snapshot plus a bounded history of
/// prior versions retained for rollback and delta-compressed snapshots.
#[derive(Debug)]
struct Entry {
    rbm: Arc<Rbm>,
    version: u64,
    /// Prior versions, ascending; bounded by the registry's
    /// `history_limit` (oldest evicted first).
    history: VecDeque<(u64, Arc<Rbm>)>,
}

impl Entry {
    /// Publishes `rbm` as the next version: retires the current snapshot
    /// into history (evicting the oldest beyond `history_limit`), bumps
    /// the version and swaps. Returns the new version.
    fn retire_and_swap(&mut self, rbm: Arc<Rbm>, history_limit: usize) -> u64 {
        let displaced = std::mem::replace(&mut self.rbm, rbm);
        self.history.push_back((self.version, displaced));
        while self.history.len() > history_limit {
            self.history.pop_front();
        }
        self.version += 1;
        self.version
    }
}

struct Inner {
    models: RwLock<BTreeMap<String, Entry>>,
    /// Called (outside the models lock) after every successful
    /// publication. `RwLock` so installing a hook never contends with
    /// the read-mostly publish path.
    hook: RwLock<Option<PublishHook>>,
    history_limit: usize,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names())
            .field("history_limit", &self.inner.history_limit)
            .finish()
    }
}

/// A thread-safe registry of named, versioned RBMs — the service's
/// source of truth for "which parameters does model X currently have".
///
/// Models are immutable snapshots behind `Arc`: publishing a new version
/// swaps the snapshot and bumps the version, it never mutates the old
/// one, so shards mid-flight keep sampling a consistent model. Sizes are
/// part of a model's identity — a publish that changes the layer sizes
/// is rejected (serving replicas are fabricated at registration size).
///
/// Every entry additionally retains a bounded **version history**
/// ([`ModelRegistry::with_history_limit`], default 8): displaced
/// snapshots are kept (cheaply, behind the same `Arc`s) so that
/// [`ModelRegistry::rollback`] can republish a prior version through
/// the normal CAS publish path, and so the persistence layer can write
/// delta-compressed version chains.
///
/// Cloning the registry clones the *handle*; all clones share state.
///
/// # Example
///
/// ```
/// use ember_serve::ModelRegistry;
/// use ember_rbm::Rbm;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let registry = ModelRegistry::new();
/// registry.register("demo", Rbm::random(4, 2, 0.1, &mut rng)).unwrap();
/// let v2 = registry.publish("demo", Rbm::random(4, 2, 0.1, &mut rng)).unwrap();
/// assert_eq!(v2, 2);
/// assert_eq!(registry.get("demo").unwrap().version, 2);
/// // The displaced version 1 is retained and can be rolled back to.
/// assert_eq!(registry.versions("demo").unwrap(), vec![1, 2]);
/// assert_eq!(registry.rollback("demo", 1).unwrap(), 3);
/// ```
#[derive(Clone)]
pub struct ModelRegistry {
    inner: Arc<Inner>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_history_limit(Self::DEFAULT_HISTORY_LIMIT)
    }
}

impl ModelRegistry {
    /// Prior versions retained per model by [`ModelRegistry::new`].
    pub const DEFAULT_HISTORY_LIMIT: usize = 8;

    /// An empty registry retaining [`Self::DEFAULT_HISTORY_LIMIT`]
    /// prior versions per model.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry retaining at most `limit` prior versions per
    /// model (`0` disables history — and with it rollback beyond the
    /// current version).
    pub fn with_history_limit(limit: usize) -> Self {
        ModelRegistry {
            inner: Arc::new(Inner {
                models: RwLock::new(BTreeMap::new()),
                hook: RwLock::new(None),
                history_limit: limit,
            }),
        }
    }

    /// The configured per-model history bound.
    pub fn history_limit(&self) -> usize {
        self.inner.history_limit
    }

    /// Installs (or with `None`, removes) the publish observer, called
    /// with `(name, new_version)` after every successful
    /// register/publish/rollback/restore. At most one hook is installed
    /// at a time; the previous one is returned-dropped. The hook runs on
    /// the publishing thread *outside* the registry lock — keep it
    /// cheap (set a flag, notify a condvar) and never re-enter the
    /// registry's write path from inside it.
    pub fn set_publish_hook(&self, hook: Option<PublishHook>) {
        *self.inner.hook.write().expect("registry hook lock") = hook;
    }

    /// Fires the publish hook, if installed. Must be called with the
    /// models lock released.
    fn notify(&self, name: &str, version: u64) {
        if let Some(hook) = self.inner.hook.read().expect("registry hook lock").as_ref() {
            hook(name, version);
        }
    }

    /// Registers a new model under `name` at version 1.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelExists`] if the name is taken.
    pub fn register(&self, name: impl Into<String>, rbm: Rbm) -> Result<u64, ServeError> {
        let name = name.into();
        {
            let mut map = self.inner.models.write().expect("registry lock");
            if map.contains_key(&name) {
                return Err(ServeError::ModelExists(name));
            }
            map.insert(
                name.clone(),
                Entry {
                    rbm: Arc::new(rbm),
                    version: 1,
                    history: VecDeque::new(),
                },
            );
        }
        self.notify(&name, 1);
        Ok(1)
    }

    /// Publishes new parameters for an existing model, returning the new
    /// version. The displaced snapshot is retained in the model's
    /// bounded history.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for an unregistered name;
    /// [`ServeError::InvalidRequest`] if the layer sizes differ from the
    /// registered model's.
    pub fn publish(&self, name: &str, rbm: Rbm) -> Result<u64, ServeError> {
        self.publish_arc(name, Arc::new(rbm), None)
    }

    /// Compare-and-swap publish: succeeds only if the current version
    /// still equals `base_version` (the version the new parameters were
    /// derived from). This is how concurrent trainers avoid the
    /// lost-update race — the loser gets
    /// [`ServeError::TrainConflict`] instead of silently overwriting
    /// the winner's work.
    ///
    /// # Errors
    ///
    /// [`ServeError::TrainConflict`] if the version moved;
    /// otherwise the same errors as [`ModelRegistry::publish`].
    pub fn publish_if(&self, name: &str, rbm: Rbm, base_version: u64) -> Result<u64, ServeError> {
        self.publish_arc(name, Arc::new(rbm), Some(base_version))
    }

    /// Shared publish path over an already-shared snapshot: look up,
    /// optionally enforce the CAS base version, validate sizes, retire
    /// the current snapshot into history, swap — all under one write
    /// lock. Rollback rides the same retire-and-swap
    /// (`Entry::retire_and_swap`) with an `Arc` cloned out of the
    /// history.
    fn publish_arc(
        &self,
        name: &str,
        rbm: Arc<Rbm>,
        base_version: Option<u64>,
    ) -> Result<u64, ServeError> {
        let version = {
            let mut map = self.inner.models.write().expect("registry lock");
            let entry = map
                .get_mut(name)
                .ok_or_else(|| ServeError::ModelNotFound(name.to_string()))?;
            if let Some(base) = base_version {
                if entry.version != base {
                    return Err(ServeError::TrainConflict {
                        model: name.to_string(),
                        base_version: base,
                        current_version: entry.version,
                    });
                }
            }
            if rbm.visible_len() != entry.rbm.visible_len()
                || rbm.hidden_len() != entry.rbm.hidden_len()
            {
                return Err(ServeError::InvalidRequest(format!(
                    "published `{name}` is {}x{}, registered as {}x{}",
                    rbm.visible_len(),
                    rbm.hidden_len(),
                    entry.rbm.visible_len(),
                    entry.rbm.hidden_len(),
                )));
            }
            entry.retire_and_swap(rbm, self.inner.history_limit)
        };
        self.notify(name, version);
        Ok(version)
    }

    /// Republishes the retained parameters of `version` as a **new**
    /// version (CAS against the version observed under the same lock,
    /// so a rollback can never trample a concurrent publish): serving
    /// traffic sees the version counter move forward monotonically and
    /// never a torn or rewound update. The rolled-back-from snapshot
    /// itself is retained in history, so a rollback can be rolled back.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for an unregistered name;
    /// [`ServeError::VersionNotFound`] if `version` is neither current
    /// nor retained in the model's bounded history.
    pub fn rollback(&self, name: &str, version: u64) -> Result<u64, ServeError> {
        let new_version = {
            let mut map = self.inner.models.write().expect("registry lock");
            let entry = map
                .get_mut(name)
                .ok_or_else(|| ServeError::ModelNotFound(name.to_string()))?;
            let target = if entry.version == version {
                Arc::clone(&entry.rbm)
            } else {
                entry
                    .history
                    .iter()
                    .find(|(v, _)| *v == version)
                    .map(|(_, rbm)| Arc::clone(rbm))
                    .ok_or(ServeError::VersionNotFound {
                        model: name.to_string(),
                        version,
                    })?
            };
            entry.retire_and_swap(target, self.inner.history_limit)
        };
        self.notify(name, new_version);
        Ok(new_version)
    }

    /// Restores a model's whole version chain (ascending versions, the
    /// last entry becoming current) — the persistence layer's path for
    /// rebuilding a registry from a decoded snapshot with history and
    /// version numbers intact.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelExists`] if the name is taken;
    /// [`ServeError::InvalidRequest`] on an empty chain, non-ascending
    /// versions, or size drift within the chain.
    pub fn restore_chain(
        &self,
        name: impl Into<String>,
        chain: Vec<(u64, Arc<Rbm>)>,
    ) -> Result<u64, ServeError> {
        let name = name.into();
        let Some(last) = chain.last() else {
            return Err(ServeError::InvalidRequest(format!(
                "restored chain for `{name}` is empty"
            )));
        };
        let (m, n) = (last.1.visible_len(), last.1.hidden_len());
        let mut prev = None;
        for (version, rbm) in &chain {
            if prev.is_some_and(|p| *version <= p) {
                return Err(ServeError::InvalidRequest(format!(
                    "restored chain for `{name}` has non-ascending versions"
                )));
            }
            prev = Some(*version);
            if rbm.visible_len() != m || rbm.hidden_len() != n {
                return Err(ServeError::InvalidRequest(format!(
                    "restored chain for `{name}` changes size at v{version}"
                )));
            }
        }
        let version = {
            let mut map = self.inner.models.write().expect("registry lock");
            if map.contains_key(&name) {
                return Err(ServeError::ModelExists(name));
            }
            let mut history: VecDeque<(u64, Arc<Rbm>)> = chain.into_iter().collect();
            let (version, rbm) = history.pop_back().expect("chain checked non-empty");
            map.insert(
                name.clone(),
                Entry {
                    rbm,
                    version,
                    history,
                },
            );
            version
        };
        self.notify(&name, version);
        Ok(version)
    }

    /// The current snapshot of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<ModelSnapshot> {
        self.inner
            .models
            .read()
            .expect("registry lock")
            .get(name)
            .map(|entry| ModelSnapshot {
                rbm: Arc::clone(&entry.rbm),
                version: entry.version,
            })
    }

    /// The retained parameters of `name` at exactly `version` (current
    /// or in the bounded history).
    pub fn get_version(&self, name: &str, version: u64) -> Option<Arc<Rbm>> {
        let map = self.inner.models.read().expect("registry lock");
        let entry = map.get(name)?;
        if entry.version == version {
            return Some(Arc::clone(&entry.rbm));
        }
        entry
            .history
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, rbm)| Arc::clone(rbm))
    }

    /// Every retained version of `name`, ascending (history + current),
    /// or `None` if unregistered.
    pub fn versions(&self, name: &str) -> Option<Vec<u64>> {
        let map = self.inner.models.read().expect("registry lock");
        let entry = map.get(name)?;
        let mut versions: Vec<u64> = entry.history.iter().map(|(v, _)| *v).collect();
        versions.push(entry.version);
        Some(versions)
    }

    /// A consistent export of every model's full retained chain
    /// (ascending versions, last entry current), taken under one read
    /// lock — what the persistence layer encodes into a snapshot file.
    /// The parameters ride out as `Arc` clones; nothing is copied.
    #[allow(clippy::type_complexity)]
    pub fn export_chains(&self) -> Vec<(String, Vec<(u64, Arc<Rbm>)>)> {
        let map = self.inner.models.read().expect("registry lock");
        map.iter()
            .map(|(name, entry)| {
                let mut chain: Vec<(u64, Arc<Rbm>)> = entry
                    .history
                    .iter()
                    .map(|(v, rbm)| (*v, Arc::clone(rbm)))
                    .collect();
                chain.push((entry.version, Arc::clone(&entry.rbm)));
                (name.clone(), chain)
            })
            .collect()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .models
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.inner.models.read().expect("registry lock").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn rbm(m: usize, n: usize, seed: u64) -> Rbm {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Rbm::random(m, n, 0.1, &mut rng)
    }

    #[test]
    fn register_publish_versioning() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.register("a", rbm(3, 2, 1)).unwrap(), 1);
        assert_eq!(reg.publish("a", rbm(3, 2, 2)).unwrap(), 2);
        assert_eq!(reg.publish("a", rbm(3, 2, 3)).unwrap(), 3);
        let snap = reg.get("a").unwrap();
        assert_eq!(snap.version, 3);
        assert_eq!(snap.rbm.visible_len(), 3);
    }

    #[test]
    fn register_rejects_duplicates_and_publish_rejects_resize() {
        let reg = ModelRegistry::new();
        reg.register("a", rbm(3, 2, 1)).unwrap();
        assert_eq!(
            reg.register("a", rbm(3, 2, 2)),
            Err(ServeError::ModelExists("a".into()))
        );
        assert!(matches!(
            reg.publish("a", rbm(4, 2, 2)),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(
            reg.publish("missing", rbm(3, 2, 2)),
            Err(ServeError::ModelNotFound("missing".into()))
        );
    }

    #[test]
    fn publish_if_rejects_stale_base_version() {
        let reg = ModelRegistry::new();
        reg.register("a", rbm(3, 2, 1)).unwrap();
        // Two trainers both start from version 1; only the first lands.
        assert_eq!(reg.publish_if("a", rbm(3, 2, 2), 1).unwrap(), 2);
        assert_eq!(
            reg.publish_if("a", rbm(3, 2, 3), 1),
            Err(ServeError::TrainConflict {
                model: "a".into(),
                base_version: 1,
                current_version: 2,
            })
        );
        // The winner's parameters survive.
        assert_eq!(*reg.get("a").unwrap().rbm, rbm(3, 2, 2));
        // Retrying from the current version succeeds.
        assert_eq!(reg.publish_if("a", rbm(3, 2, 3), 2).unwrap(), 3);
    }

    #[test]
    fn snapshots_are_immutable_across_publishes() {
        let reg = ModelRegistry::new();
        reg.register("a", rbm(3, 2, 1)).unwrap();
        let before = reg.get("a").unwrap();
        reg.publish("a", rbm(3, 2, 99)).unwrap();
        // The old snapshot still points at the version-1 parameters.
        assert_eq!(before.version, 1);
        assert_eq!(*before.rbm, rbm(3, 2, 1));
        assert_ne!(*reg.get("a").unwrap().rbm, *before.rbm);
    }

    #[test]
    fn handles_share_state() {
        let reg = ModelRegistry::new();
        let other = reg.clone();
        reg.register("a", rbm(2, 2, 1)).unwrap();
        assert_eq!(other.names(), vec!["a".to_string()]);
        assert!(!other.is_empty());
    }

    #[test]
    fn history_retains_displaced_versions_up_to_the_limit() {
        let reg = ModelRegistry::with_history_limit(2);
        reg.register("a", rbm(3, 2, 1)).unwrap();
        for seed in 2..=5 {
            reg.publish("a", rbm(3, 2, seed)).unwrap();
        }
        // Versions 1..=5 published; only the last 2 displaced (3, 4)
        // plus the current (5) are retained.
        assert_eq!(reg.versions("a").unwrap(), vec![3, 4, 5]);
        assert!(reg.get_version("a", 2).is_none());
        assert_eq!(*reg.get_version("a", 3).unwrap(), rbm(3, 2, 3));
        assert_eq!(*reg.get_version("a", 5).unwrap(), rbm(3, 2, 5));
    }

    #[test]
    fn rollback_republishes_a_prior_version_as_a_new_one() {
        let reg = ModelRegistry::new();
        reg.register("a", rbm(3, 2, 1)).unwrap();
        reg.publish("a", rbm(3, 2, 2)).unwrap();
        reg.publish("a", rbm(3, 2, 3)).unwrap();
        // Roll back to v1: the version counter moves FORWARD.
        assert_eq!(reg.rollback("a", 1).unwrap(), 4);
        let snap = reg.get("a").unwrap();
        assert_eq!(snap.version, 4);
        assert_eq!(*snap.rbm, rbm(3, 2, 1));
        // The rolled-back-from v3 is itself retained: roll forward again.
        assert_eq!(reg.rollback("a", 3).unwrap(), 5);
        assert_eq!(*reg.get("a").unwrap().rbm, rbm(3, 2, 3));
        // Unknown versions are a typed error.
        assert_eq!(
            reg.rollback("a", 99),
            Err(ServeError::VersionNotFound {
                model: "a".into(),
                version: 99,
            })
        );
        assert_eq!(
            reg.rollback("missing", 1),
            Err(ServeError::ModelNotFound("missing".into()))
        );
    }

    #[test]
    fn zero_history_limit_disables_rollback_beyond_current() {
        let reg = ModelRegistry::with_history_limit(0);
        reg.register("a", rbm(3, 2, 1)).unwrap();
        reg.publish("a", rbm(3, 2, 2)).unwrap();
        assert_eq!(reg.versions("a").unwrap(), vec![2]);
        assert!(matches!(
            reg.rollback("a", 1),
            Err(ServeError::VersionNotFound { .. })
        ));
        // Rolling back to the current version still works (republish).
        assert_eq!(reg.rollback("a", 2).unwrap(), 3);
    }

    #[test]
    fn restore_chain_rebuilds_history_and_validates() {
        fn arc(m: usize, n: usize, seed: u64) -> Arc<Rbm> {
            Arc::new(rbm(m, n, seed))
        }
        let reg = ModelRegistry::new();
        reg.restore_chain("a", vec![(2, arc(3, 2, 2)), (5, arc(3, 2, 5))])
            .unwrap();
        assert_eq!(reg.get("a").unwrap().version, 5);
        assert_eq!(reg.versions("a").unwrap(), vec![2, 5]);
        assert_eq!(*reg.get_version("a", 2).unwrap(), rbm(3, 2, 2));
        // Duplicate name, empty chain, unordered versions, size drift.
        assert!(matches!(
            reg.restore_chain("a", vec![(1, arc(3, 2, 1))]),
            Err(ServeError::ModelExists(_))
        ));
        assert!(matches!(
            reg.restore_chain("b", vec![]),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            reg.restore_chain("b", vec![(5, arc(3, 2, 1)), (2, arc(3, 2, 2))]),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            reg.restore_chain("b", vec![(1, arc(3, 2, 1)), (2, arc(4, 2, 2))]),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn publish_hook_fires_on_every_publication_path() {
        let reg = ModelRegistry::new();
        let count = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let count = Arc::clone(&count);
            let seen = Arc::clone(&seen);
            reg.set_publish_hook(Some(Box::new(move |name, version| {
                count.fetch_add(1, Ordering::SeqCst);
                seen.lock().unwrap().push((name.to_string(), version));
            })));
        }
        reg.register("a", rbm(3, 2, 1)).unwrap();
        reg.publish("a", rbm(3, 2, 2)).unwrap();
        reg.rollback("a", 1).unwrap();
        reg.restore_chain("b", vec![(7, Arc::new(rbm(2, 2, 7)))])
            .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                ("a".to_string(), 1),
                ("a".to_string(), 2),
                ("a".to_string(), 3),
                ("b".to_string(), 7),
            ]
        );
        // Failed publications do not fire.
        let _ = reg.register("a", rbm(3, 2, 9));
        assert_eq!(count.load(Ordering::SeqCst), 4);
        // Uninstalling stops notifications.
        reg.set_publish_hook(None);
        reg.publish("a", rbm(3, 2, 5)).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }
}
