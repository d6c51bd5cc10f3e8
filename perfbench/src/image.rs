//! A [`PmImage`] wrapper that counts persist boundaries and the bytes
//! passed to them, and the crash set-up the store workload opens.

use dialga_memsim::PersistMem;
use dialga_store::{Geometry, PmImage, StoreError, StripeStore};

/// Counts what the store asks the medium to make durable.
pub struct CountingImage<I> {
    inner: I,
    persists: u64,
    persisted_bytes: u64,
}

impl<I> CountingImage<I> {
    pub fn new(inner: I) -> Self {
        CountingImage {
            inner,
            persists: 0,
            persisted_bytes: 0,
        }
    }

    /// `(persist calls, bytes passed to persist)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.persists, self.persisted_bytes)
    }
}

impl<I: PmImage> PmImage for CountingImage<I> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        self.inner.read(offset, out)
    }
    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.store(offset, bytes)
    }
    fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
        self.persists += 1;
        self.persisted_bytes += len as u64;
        self.inner.persist(offset, len)
    }
}

/// A durable image left by a power failure in the middle of a put.
pub struct CrashedImage {
    /// The durable bytes at the crash.
    pub bytes: Vec<u8>,
    /// The stripe whose put was interrupted.
    pub stripe: usize,
    /// Payload index the put was writing.
    pub new: usize,
    /// Payload index of every stripe before the interrupted put.
    pub record: Vec<usize>,
}

/// Populate a [`PersistMem`] store (stripe `s` holds payload
/// `initial[s]`), then power-fail at the slot or commit persist of a put
/// of payload `new` to `stripe` (`at_commit` picks which).
pub fn crash_mid_put(
    geo: Geometry,
    payloads: &[Vec<Vec<u8>>],
    initial: &[usize],
    stripe: usize,
    new: usize,
    at_commit: bool,
    tear_seed: u64,
) -> Result<CrashedImage, StoreError> {
    let image = PersistMem::with_seed(geo.image_len(), tear_seed);
    let mut store = StripeStore::format(image, geo)?;
    for (s, &p) in initial.iter().enumerate() {
        store.write_stripe(s, &refs(&payloads[p]))?;
    }
    store.image_mut().arm_crash(u64::from(at_commit));
    if store.write_stripe(stripe, &refs(&payloads[new])).is_ok() {
        return Err(StoreError::BadStripeData {
            why: "armed crash did not fire",
        });
    }
    Ok(CrashedImage {
        bytes: store.into_image().durable_image().to_vec(),
        stripe,
        new,
        record: initial.to_vec(),
    })
}

/// Borrow a stripe's blocks as slices.
pub fn refs(blocks: &[Vec<u8>]) -> Vec<&[u8]> {
    blocks.iter().map(Vec::as_slice).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_store::MemImage;
    use dialga_testkit::Rng;

    fn reopen(bytes: &[u8]) -> StripeStore<CountingImage<MemImage>> {
        StripeStore::open(CountingImage::new(MemImage::from_bytes(bytes.to_vec()))).unwrap()
    }

    fn payloads(geo: Geometry, n: usize, rng: &mut Rng) -> Vec<Vec<Vec<u8>>> {
        (0..n)
            .map(|_| (0..geo.k).map(|_| rng.bytes(geo.shard_len)).collect())
            .collect()
    }

    #[test]
    fn counts_every_persist_and_its_bytes() {
        let geo = Geometry::new(4, 2, 1024, 3).unwrap();
        let mut rng = Rng::new(3);
        let data = payloads(geo, 2, &mut rng);
        let image = CountingImage::new(MemImage::new(geo.image_len()));
        let mut store = StripeStore::format(image, geo).unwrap();
        let (p0, b0) = store.image().counts();
        assert_eq!(p0, 1, "format persists the metadata once");
        store.write_stripe(1, &refs(&data[0])).unwrap();
        store.write_stripe(1, &refs(&data[1])).unwrap();
        let (p, b) = store.image().counts();
        assert_eq!(p - p0, 4, "two persists per put: slot, then commit word");
        assert_eq!(b - b0, 2 * (geo.slot_len() + 8));
        // Reads never persist.
        store.read_stripe(1).unwrap();
        assert_eq!(store.image().counts(), (p, b));
    }

    #[test]
    fn crash_mid_put_recovers_old_or_new_and_keeps_the_rest() {
        let geo = Geometry::new(4, 2, 1024, 4).unwrap();
        let mut rng = Rng::new(11);
        let data = payloads(geo, 5, &mut rng);
        let initial = [0, 1, 2, 3];
        for at_commit in [false, true] {
            for seed in 0..4 {
                let crash = crash_mid_put(geo, &data, &initial, 2, 4, at_commit, seed).unwrap();
                let store = reopen(&crash.bytes);
                let got = store.read_stripe(2).unwrap();
                assert!(got == data[crash.record[2]] || got == data[crash.new]);
                for s in [0, 1, 3] {
                    assert_eq!(store.read_stripe(s).unwrap(), data[crash.record[s]]);
                }
                let r = store.recovery_report();
                assert!(r.rolled_back + r.rolled_forward <= 1, "{r:?}");
            }
        }
    }
}
