// L1 fixture: lock guards held across an EM fit, a store write, a store read and a
// store delete. Linted under the path `crates/gem-serve/src/cache.rs`; the violations
// are on lines 10, 11, 16 and 19 (the guards bind on lines 9 and 15). Line 24 shows
// the compliant shape: fit before taking the lock.

impl Cache {
    fn fit_under_lock(&self, key: ModelKey, corpus: &[GemColumn]) {
        let config = self.config.clone();
        let mut cache = crate::sync::lock_or_recover(&self.cache);
        let model = GemModel::fit(corpus, &config, FeatureSet::ds());
        self.store.save(key, &model).ok();
        cache.insert(key, model);
    }
    fn warm_start_under_lock(&self, key: ModelKey) {
        let mut cache = crate::sync::lock_or_recover(&self.cache);
        if let Ok(Some(model)) = self.store.load(key) {
            cache.insert(key, model);
        } else {
            let _ = self.store.remove(key);
        }
    }
    fn fit_outside_lock(&self, key: ModelKey, corpus: &[GemColumn]) {
        let config = self.config.clone();
        let model = GemModel::fit(corpus, &config, FeatureSet::ds());
        let mut cache = crate::sync::lock_or_recover(&self.cache);
        cache.insert(key, model);
    }
}
