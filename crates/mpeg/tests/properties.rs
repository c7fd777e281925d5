//! Randomized property tests of the video model: the GOP byte index and
//! the frame-level lookups must agree for every title, and the cursor must
//! track random-access queries exactly. Driven by the deterministic
//! [`SimRng`] so failures reproduce from the printed seed.

use spiffi_mpeg::{PlayCursor, Video, VideoId, VideoParams};
use spiffi_simcore::{SimDuration, SimRng};

fn random_video(rng: &mut SimRng) -> (Video, u64) {
    // Titles from 2 to 90 seconds, arbitrary seeds and ids.
    let secs = 2 + rng.u64_below(88);
    let seed = rng.next_u64_raw();
    let id = rng.u64_below(1000) as u32;
    let v = Video::generate(
        VideoId(id),
        VideoParams {
            duration: SimDuration::from_secs(secs),
            ..VideoParams::default()
        },
        seed,
    );
    let frames = v.num_frames();
    (v, frames)
}

/// frame_at_byte is the exact inverse of cum_bytes_at_frame.
#[test]
fn frame_byte_round_trip() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xf4a3e, seed);
        let (video, frames) = random_video(&mut rng);
        let f = rng.u64_below(frames);
        let start = video.cum_bytes_at_frame(f);
        let end = video.cum_bytes_at_frame(f + 1);
        assert!(end > start, "seed {seed}: frames have positive size");
        assert_eq!(video.frame_at_byte(start), f, "seed {seed}");
        assert_eq!(video.frame_at_byte(end - 1), f, "seed {seed}");
    }
}

/// The cumulative index is strictly increasing and ends at the total.
#[test]
fn cumulative_index_is_strictly_monotone() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x1dc5, seed);
        let (video, frames) = random_video(&mut rng);
        let mut prev = 0;
        for f in 1..=frames {
            let c = video.cum_bytes_at_frame(f);
            assert!(
                c > prev,
                "seed {seed}: frame {} has non-positive size",
                f - 1
            );
            prev = c;
        }
        assert_eq!(prev, video.total_bytes(), "seed {seed}");
    }
}

/// A cursor seeked anywhere agrees with random access, and advancing from
/// there stays in agreement.
#[test]
fn cursor_agrees_with_random_access() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xc0450, seed);
        let (video, frames) = random_video(&mut rng);
        let start = rng.u64_below(frames);
        let steps = rng.u64_below(40);
        let mut cursor = PlayCursor::new(&video, start);
        for f in start..start + steps {
            if cursor.at_end(&video) {
                break;
            }
            assert_eq!(
                cursor.bytes_before_frame(),
                video.cum_bytes_at_frame(f),
                "seed {seed}"
            );
            assert_eq!(
                cursor.bytes_through_frame(),
                video.cum_bytes_at_frame(f + 1),
                "seed {seed}"
            );
            cursor.advance(&video);
        }
    }
}

/// Regeneration is deterministic: any (seed, id) pair always yields
/// identical GOP sizes.
#[test]
fn regeneration_deterministic() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x4e6e4, seed);
        let secs = 2 + rng.u64_below(28);
        let vseed = rng.next_u64_raw();
        let make = || {
            Video::generate(
                VideoId(1),
                VideoParams {
                    duration: SimDuration::from_secs(secs),
                    ..VideoParams::default()
                },
                vseed,
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a.total_bytes(), b.total_bytes(), "seed {seed}");
        let g = rng.u64_below(a.num_gops());
        assert_eq!(a.gop_frame_sizes(g), b.gop_frame_sizes(g), "seed {seed}");
    }
}

/// Realized bit rate stays within 15% of nominal even for short clips (law
/// of large numbers over exponential frames).
#[test]
fn bit_rate_within_tolerance() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xb17, seed);
        let secs = 30 + rng.u64_below(60);
        let vseed = rng.next_u64_raw();
        let v = Video::generate(
            VideoId(0),
            VideoParams {
                duration: SimDuration::from_secs(secs),
                ..VideoParams::default()
            },
            vseed,
        );
        let rate = v.actual_bit_rate_bps();
        assert!(
            (rate - 4_000_000.0).abs() < 600_000.0,
            "seed {seed}: rate {rate} for {secs}s clip"
        );
    }
}

/// Title bytes per entry of the video's slot index; the oracle tests
/// probe both sides of every multiple.
const SLOT_BYTES: u64 = 1 << 18;

/// The reference byte index: `cum[f]` = bytes of frames `[0, f)`, summed
/// straight from the regenerated GOP frame sizes in `u64`.
fn oracle_prefix_sums(video: &Video) -> Vec<u64> {
    let frames = video.num_frames();
    let mut cum = Vec::with_capacity(frames as usize + 1);
    cum.push(0);
    let mut acc = 0u64;
    for g in 0..video.num_gops() {
        for s in video.gop_frame_sizes(g) {
            if cum.len() as u64 > frames {
                break;
            }
            acc += s;
            cum.push(acc);
        }
    }
    cum
}

/// The frame holding `byte` by binary search over the reference index,
/// clamped to the last frame at or past the end of the title.
fn oracle_frame_at_byte(cum: &[u64], byte: u64) -> u64 {
    let frames = cum.len() as u64 - 1;
    if byte >= cum[cum.len() - 1] {
        return frames.saturating_sub(1);
    }
    cum.partition_point(|&c| c <= byte) as u64 - 1
}

/// Check `video`'s byte index against the reference at every frame, at
/// every slot boundary and every GOP boundary ±1 byte, and walk a cursor
/// through the whole title.
fn check_against_oracle(label: &str, video: &Video) {
    let cum = oracle_prefix_sums(video);
    let frames = video.num_frames();
    assert_eq!(cum.len() as u64, frames + 1, "{label}");
    assert_eq!(video.total_bytes(), cum[frames as usize], "{label}");
    for f in 0..=frames + 1 {
        let want = cum[f.min(frames) as usize];
        assert_eq!(video.cum_bytes_at_frame(f), want, "{label}: frame {f}");
    }
    let total = video.total_bytes();
    let slots = (0..=total.div_ceil(SLOT_BYTES)).map(|s| s * SLOT_BYTES);
    let gops = (0..=video.num_gops()).map(|g| video.cum_bytes_at_frame(g * 15));
    for edge in slots.chain(gops) {
        for byte in [edge.saturating_sub(1), edge, edge + 1] {
            assert_eq!(
                video.frame_at_byte(byte),
                oracle_frame_at_byte(&cum, byte),
                "{label}: byte {byte}"
            );
        }
    }
    let mut cursor = PlayCursor::new(video, 0);
    for f in 0..frames {
        assert_eq!(cursor.bytes_before_frame(), cum[f as usize], "{label}");
        assert_eq!(cursor.bytes_through_frame(), cum[f as usize + 1], "{label}");
        cursor.advance(video);
    }
    assert!(cursor.at_end(video), "{label}");
    // Seeks land on GOP boundaries from either direction.
    for g in (0..video.num_gops()).rev() {
        let f = g * 15;
        cursor.seek(video, f);
        assert_eq!(cursor.bytes_before_frame(), cum[f as usize], "{label}");
    }
}

fn title(millis: u64, bit_rate_bps: u64, seed: u64) -> Video {
    Video::generate(
        VideoId(seed as u32),
        VideoParams {
            bit_rate_bps,
            duration: SimDuration::from_millis(millis),
            ..VideoParams::default()
        },
        seed,
    )
}

/// Hour-long titles at the paper's 4 Mbit/s: about one GOP per slot.
#[test]
fn hour_long_titles_match_the_oracle() {
    for seed in [7u64, 0x5b1ff1] {
        let v = title(3_600_000, 4_000_000, seed);
        check_against_oracle(&format!("hour seed {seed}"), &v);
    }
}

/// A title over 4 GiB: the `u64` GOP bases exceed `u32`, while each
/// frame's offset within its GOP still fits one. At 40 Mbit/s a GOP
/// spans about ten slots.
#[test]
fn title_over_4_gib_matches_the_oracle() {
    let v = title(900_000, 40_000_000, 3);
    assert!(v.total_bytes() > u32::MAX as u64, "{}", v.total_bytes());
    check_against_oracle("4 GiB", &v);
}

/// A title shorter than one slot, which is also one partial GOP.
#[test]
fn title_shorter_than_one_slot_matches_the_oracle() {
    let v = title(400, 4_000_000, 11);
    assert!(v.total_bytes() < SLOT_BYTES, "{}", v.total_bytes());
    assert_eq!(v.num_frames(), 12);
    check_against_oracle("sub-slot", &v);
}

/// A title of exactly two slots. At 1 bit/s every exponential frame size
/// rounds to zero and is floored to one byte, so 2^19 frames make
/// 2^19 bytes — thousands of GOPs per slot, and a partial final GOP
/// (2^19 = 15·34 952 + 8).
#[test]
fn title_of_exact_slot_multiple_matches_the_oracle() {
    let frames = 2 * SLOT_BYTES;
    let v = Video::generate(
        VideoId(0),
        VideoParams {
            bit_rate_bps: 1,
            fps: 30,
            duration: SimDuration((frames * 1_000_000_000).div_ceil(30)),
        },
        5,
    );
    assert_eq!(v.num_frames(), frames);
    assert_eq!(v.total_bytes(), frames);
    assert_eq!(v.num_frames() % 15, 8);
    check_against_oracle("exact slots", &v);
}

/// Short titles ending in a partial GOP of every possible length.
#[test]
fn partial_final_gops_match_the_oracle() {
    for extra in 1..15u64 {
        // 2 s = 60 frames = 4 whole GOPs; each extra frame is 1/30 s.
        let v = title(2_000 + extra * 1000 / 30 + 1, 4_000_000, extra);
        assert_eq!(v.num_frames(), 60 + extra);
        check_against_oracle(&format!("partial {extra}"), &v);
    }
}
