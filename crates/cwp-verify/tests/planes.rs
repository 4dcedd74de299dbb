//! Both planes of the one engine against the independent oracle.
//!
//! The same pseudo-random reference stream runs through the data plane
//! ([`MemoryCache`]), the data-free plane ([`SoaCache`]) and
//! [`ModelCache`] at every policy/geometry point, and all three must end
//! with identical statistics, execution and total traffic, and resident
//! line states. About one access in sixteen is zero bytes long, which
//! every side must ignore.

use cwp_cache::{CacheConfig, MemoryCache, SoaCache, WriteHitPolicy, WriteMissPolicy};
use cwp_mem::rng::SplitMix64;
use cwp_verify::ModelCache;

fn assert_planes_match_the_model(config: CacheConfig, seed: u64) {
    let mut data = MemoryCache::with_memory(config);
    let mut data_free = SoaCache::new(config);
    let mut model = ModelCache::new(config);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut buf = [0u8; 8];
    let mut written = 0u64;
    for _ in 0..20_000 {
        let r = rng.next_u64();
        // Bias towards a 64 KB region with conflicts; sizes 0..8,
        // occasionally straddling a line boundary.
        let addr = r % 65_536;
        let len = if r >> 50 & 15 == 0 {
            0
        } else {
            1 + ((r >> 17) % 8) as usize
        };
        if r >> 40 & 1 == 0 {
            data.read(addr, &mut buf[..len]);
            data_free.read(addr, len);
            model.read(addr, &mut buf[..len]);
        } else {
            data.write(addr, &buf[..len]);
            data_free.write(addr, len);
            model.write(addr, &buf[..len]);
            written += len as u64;
        }
    }
    assert_eq!(data.traffic(), model.traffic(), "{config:?} execution");
    assert_eq!(data_free.traffic(), model.traffic(), "{config:?} execution");
    assert_eq!(data.line_states(), model.line_states(), "{config:?}");
    assert_eq!(data_free.line_states(), model.line_states(), "{config:?}");
    assert_eq!(data.bytes_written(), written, "{config:?}");
    assert_eq!(data_free.bytes_written(), written, "{config:?}");
    data.flush();
    data_free.flush();
    model.flush();
    assert_eq!(*data.stats(), model.stats(), "{config:?}");
    assert_eq!(*data_free.stats(), model.stats(), "{config:?}");
    assert_eq!(data.traffic(), model.traffic(), "{config:?} total");
    assert_eq!(data_free.traffic(), model.traffic(), "{config:?} total");
}

#[test]
fn both_planes_match_the_model_across_the_policy_matrix() {
    for hit in WriteHitPolicy::ALL {
        for miss in WriteMissPolicy::ALL {
            let Ok(config) = CacheConfig::builder()
                .size_bytes(2048)
                .line_bytes(16)
                .write_hit(hit)
                .write_miss(miss)
                .build()
            else {
                continue;
            };
            assert_planes_match_the_model(config, 0x5e_ed);
        }
    }
}

#[test]
fn both_planes_match_the_model_across_geometries() {
    // The last three rows fill or overflow the engine's 32-way hit
    // bitmap: 64 ways over 16 sets, 32 ways, one fully associative set.
    for (line, ways, partial) in [
        (4u32, 1u32, false),
        (32, 2, false),
        (16, 4, true),
        (64, 8, true),
        (4, 64, false),
        (16, 32, true),
        (64, 64, false),
    ] {
        let config = CacheConfig::builder()
            .size_bytes(4096)
            .line_bytes(line)
            .associativity(ways)
            .write_hit(WriteHitPolicy::WriteBack)
            .write_miss(WriteMissPolicy::WriteValidate)
            .partial_writeback(partial)
            .build()
            .unwrap();
        assert_planes_match_the_model(config, 0xca_fe);
    }
}
