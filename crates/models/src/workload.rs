//! Synthetic workload generators reproducing the input characteristics of
//! the paper's two datasets.
//!
//! The datasets themselves are not redistributable, but the properties
//! that matter for kernel timing are simple and documented: sequence
//! lengths (which set the padding masked out by the kernels) and the
//! positions of special tokens (which set the selected/global pattern
//! parts). We generate samples matching those distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One model input: its real (unpadded) length and the special-token
/// positions that parameterize the compound pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSample {
    /// Number of real tokens (the rest up to the model's maximum is
    /// zero padding).
    pub valid_len: usize,
    /// Special-token positions: question tokens (Longformer / hotpotQA,
    /// contiguous at the start) or sentence markers (QDS / MSMARCO,
    /// spread through the document).
    pub special_tokens: Vec<usize>,
}

/// Generates `n` hotpotQA-like samples for a model with `max_seq_len`
/// tokens: a 10–40-token question at the start (its tokens get global
/// attention) followed by multi-paragraph context that nearly fills the
/// window.
pub fn hotpotqa_like(max_seq_len: usize, n: usize, seed: u64) -> Vec<WorkloadSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let question = rng.gen_range(10..=40.min(max_seq_len / 4).max(11));
            // Multi-hop contexts are long; most samples fill 70–100%.
            let frac = rng.gen_range(0.70..=1.0);
            let valid_len = ((max_seq_len as f64 * frac) as usize).clamp(question + 1, max_seq_len);
            // Longformer's QA models put global attention on the question
            // tokens AND on sentence/paragraph marker tokens spread through
            // the context (multi-hop evidence markers).
            let mut special: Vec<usize> = (0..question).collect();
            let mut pos = question;
            loop {
                pos += rng.gen_range(80..=160);
                if pos >= valid_len {
                    break;
                }
                special.push(pos);
            }
            WorkloadSample {
                valid_len,
                special_tokens: special,
            }
        })
        .collect()
}

/// Generates `n` MSMARCO-like document-ranking samples: documents of
/// widely varying length with sentence-marker tokens every 20–45 tokens
/// (QDS-Transformer attends these as selected tokens).
pub fn msmarco_like(max_seq_len: usize, n: usize, seed: u64) -> Vec<WorkloadSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let frac = rng.gen_range(0.4..=1.0);
            let valid_len = ((max_seq_len as f64 * frac) as usize).max(32);
            let mut special = vec![0usize];
            let mut pos = 0usize;
            loop {
                pos += rng.gen_range(20..=45);
                if pos >= valid_len {
                    break;
                }
                special.push(pos);
            }
            WorkloadSample {
                valid_len,
                special_tokens: special,
            }
        })
        .collect()
}

/// Generates `n` TriviaQA-like samples: a short question (6–20 tokens,
/// global) over a single long evidence document that usually overflows
/// the window (so most samples are unpadded).
pub fn triviaqa_like(max_seq_len: usize, n: usize, seed: u64) -> Vec<WorkloadSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let question = rng.gen_range(6..=20.min(max_seq_len / 8).max(7));
            // Wikipedia evidence pages are long: 85–100% fill.
            let frac = rng.gen_range(0.85..=1.0);
            let valid_len = ((max_seq_len as f64 * frac) as usize).clamp(question + 1, max_seq_len);
            WorkloadSample {
                valid_len,
                special_tokens: (0..question).collect(),
            }
        })
        .collect()
}

/// Generates `n` WikiHop-like samples: a query plus many short candidate
/// documents, each introduced by a marker token that receives global
/// attention (multi-hop reasoning hops across the markers).
pub fn wikihop_like(max_seq_len: usize, n: usize, seed: u64) -> Vec<WorkloadSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let query = rng.gen_range(4..=12.min(max_seq_len / 8).max(5));
            let frac = rng.gen_range(0.6..=1.0);
            let valid_len = ((max_seq_len as f64 * frac) as usize).max(query + 32);
            let mut special: Vec<usize> = (0..query).collect();
            // Candidate documents average ~60 tokens each.
            let mut pos = query;
            loop {
                pos += rng.gen_range(30..=90);
                if pos >= valid_len.min(max_seq_len) {
                    break;
                }
                special.push(pos);
            }
            WorkloadSample {
                valid_len: valid_len.min(max_seq_len),
                special_tokens: special,
            }
        })
        .collect()
}

/// Generates `n` Poisson arrival timestamps (seconds) at `rate_rps`
/// requests per second: i.i.d. exponential inter-arrival gaps.
///
/// The underlying unit-mean exponential draws depend only on `seed`, and
/// the rate enters purely as a `1/rate` scale factor. Two calls with the
/// same seed and different rates therefore produce the *same* arrival
/// sequence compressed or stretched in time, which makes queueing delay
/// — and hence tail latency — monotone in the offered rate, a property
/// the serving studies rely on when sweeping rates.
///
/// # Panics
///
/// Panics if `rate_rps` is not strictly positive.
pub fn poisson_arrivals(rate_rps: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(rate_rps > 0.0, "arrival rate must be positive: {rate_rps}");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_0FA1);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += unit_exponential(&mut rng) / rate_rps;
            t
        })
        .collect()
}

/// Generates `n` bursty arrival timestamps (seconds) averaging
/// `rate_rps`: a two-state modulated Poisson process that alternates
/// between a calm state and a burst state `burstiness` times denser, each
/// state lasting an exponentially distributed number of arrivals.
///
/// `burstiness == 1.0` degenerates to [`poisson_arrivals`]. As there,
/// the draws depend only on `seed`, so sweeping the rate rescales one
/// fixed arrival sequence. The calm/burst rates are balanced so the
/// long-run average rate stays `rate_rps`.
///
/// # Panics
///
/// Panics if `rate_rps` is not strictly positive or `burstiness < 1.0`.
pub fn bursty_arrivals(rate_rps: f64, burstiness: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(rate_rps > 0.0, "arrival rate must be positive: {rate_rps}");
    assert!(burstiness >= 1.0, "burstiness must be >= 1: {burstiness}");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB065_7A11);
    // Half the arrivals come from each state; the calm rate is chosen so
    // that the harmonic blend of the two per-state rates averages out:
    // mean gap = (gap_calm + gap_burst) / 2 = 1 / rate.
    let gap_calm = 2.0 / rate_rps * burstiness / (burstiness + 1.0);
    let gap_burst = gap_calm / burstiness;
    let mut t = 0.0f64;
    let mut in_burst = false;
    let mut left_in_state = 0usize;
    (0..n)
        .map(|_| {
            if left_in_state == 0 {
                in_burst = !in_burst;
                // Mean state length of 8 arrivals, at least 1.
                left_in_state = (unit_exponential(&mut rng) * 8.0).ceil().max(1.0) as usize;
            }
            left_in_state -= 1;
            let gap = if in_burst { gap_burst } else { gap_calm };
            t += unit_exponential(&mut rng) * gap;
            t
        })
        .collect()
}

/// One turn of a multi-turn chat session: the user tokens appended to
/// the shared context, the response tokens decoded one per step, and
/// the think time that elapsed before the turn was issued.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatTurn {
    /// New user tokens appended before decoding (0 for the first turn,
    /// whose context is the session prefill).
    pub user_tokens: usize,
    /// Response tokens generated autoregressively, one decode step
    /// each.
    pub decode_tokens: usize,
    /// Seconds of user think time between the previous turn's last
    /// token and this turn's arrival (0 for the first turn).
    pub think_s: f64,
}

/// A chat-style multi-turn session: one prefill over the initial
/// context, then alternating decode bursts and user follow-ups that
/// all share the session's KV prefix — only the *new* tokens of each
/// turn are prefilled, the rest is reused.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatSession {
    /// Session arrival time in seconds.
    pub arrival_s: f64,
    /// Initial context (system prompt + first user message); its
    /// special tokens parameterize the compound pattern for the whole
    /// session.
    pub prefill: WorkloadSample,
    /// The turns, in order; `turns[0]` responds to the prefill.
    pub turns: Vec<ChatTurn>,
}

impl ChatSession {
    /// Total decode steps across all turns.
    pub fn decode_steps(&self) -> usize {
        self.turns.iter().map(|t| t.decode_tokens).sum()
    }
}

/// Builds one chat session per base sample: the sample's `valid_len`
/// becomes the session's total token budget (so class length
/// distributions carry over), with ~60% spent on the initial prefill
/// and the rest split across 2..=`max_turns` turns of user follow-ups
/// and decoded responses. Session arrivals are Poisson at `rate_rps`;
/// think times are exponential with mean `mean_think_s`. Everything is
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if `rate_rps` is not strictly positive.
pub fn chat_sessions(
    samples: &[WorkloadSample],
    max_turns: usize,
    mean_think_s: f64,
    rate_rps: f64,
    seed: u64,
) -> Vec<ChatSession> {
    let arrivals = poisson_arrivals(rate_rps, samples.len(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A7_5E55_105Eu64);
    samples
        .iter()
        .zip(arrivals)
        .map(|(sample, arrival_s)| {
            let budget = sample.valid_len.max(8);
            let prefill_len = (budget * 3 / 5).max(4);
            let mut remaining = budget - prefill_len;
            let mut special: Vec<usize> = sample
                .special_tokens
                .iter()
                .copied()
                .filter(|&t| t < prefill_len)
                .collect();
            special.sort_unstable();
            special.dedup();
            let want_turns = rng.gen_range(2..=max_turns.max(2));
            let mut turns = Vec::new();
            for i in 0..want_turns {
                let user_tokens = if i == 0 { 0 } else { rng.gen_range(4..=16) };
                let decode_want = rng.gen_range(8..=32);
                if user_tokens + 1 > remaining {
                    break;
                }
                let decode_tokens = decode_want.min(remaining - user_tokens).max(1);
                remaining -= user_tokens + decode_tokens;
                turns.push(ChatTurn {
                    user_tokens,
                    decode_tokens,
                    think_s: if i == 0 {
                        0.0
                    } else {
                        unit_exponential(&mut rng) * mean_think_s
                    },
                });
            }
            ChatSession {
                arrival_s,
                prefill: WorkloadSample {
                    valid_len: prefill_len,
                    special_tokens: special,
                },
                turns,
            }
        })
        .collect()
}

/// One unit-mean exponential draw via inverse transform sampling.
fn unit_exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln()
}

/// A deterministic "representative" sample (median-ish of the generator)
/// used when one pattern must stand in for the batch.
pub fn representative(samples: &[WorkloadSample]) -> WorkloadSample {
    let mut sorted: Vec<&WorkloadSample> = samples.iter().collect();
    sorted.sort_by_key(|s| s.valid_len);
    sorted[sorted.len() / 2].clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpotqa_questions_are_contiguous_prefixes() {
        for s in hotpotqa_like(4096, 20, 1) {
            assert!(!s.special_tokens.is_empty());
            assert_eq!(s.special_tokens[0], 0, "question starts the sequence");
            let spread = s.special_tokens.iter().filter(|&&t| t > 200).count();
            assert!(spread > 0, "evidence markers spread through the context");
            assert!(s.valid_len <= 4096 && s.valid_len > s.special_tokens.len());
        }
    }

    #[test]
    fn msmarco_markers_are_spread_and_increasing() {
        for s in msmarco_like(2048, 20, 2) {
            assert!(s.special_tokens.len() >= 2, "documents have sentences");
            for w in s.special_tokens.windows(2) {
                assert!(w[1] > w[0] && w[1] - w[0] <= 45);
            }
            assert!(*s.special_tokens.last().expect("non-empty") < s.valid_len);
        }
    }

    #[test]
    fn triviaqa_documents_are_long() {
        let samples = triviaqa_like(4096, 20, 5);
        let avg: usize = samples.iter().map(|s| s.valid_len).sum::<usize>() / samples.len();
        assert!(
            avg > 4096 * 8 / 10,
            "evidence pages nearly fill the window: {avg}"
        );
        for s in &samples {
            assert!(s.special_tokens.len() <= 20, "questions are short");
        }
    }

    #[test]
    fn wikihop_has_many_document_markers() {
        let samples = wikihop_like(4096, 20, 6);
        for s in &samples {
            assert!(
                s.special_tokens.len() > 10,
                "multi-hop needs many candidate markers: {}",
                s.special_tokens.len()
            );
            assert!(s.special_tokens.iter().all(|&t| t < s.valid_len));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(hotpotqa_like(4096, 5, 9), hotpotqa_like(4096, 5, 9));
        assert_ne!(msmarco_like(2048, 5, 1), msmarco_like(2048, 5, 2));
    }

    #[test]
    fn poisson_arrivals_scale_with_rate() {
        let slow = poisson_arrivals(10.0, 400, 7);
        let fast = poisson_arrivals(40.0, 400, 7);
        assert_eq!(slow.len(), 400);
        assert!(slow.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        // Same seed, 4x the rate -> exactly 4x compressed timestamps.
        for (s, f) in slow.iter().zip(&fast) {
            assert!((s / f - 4.0).abs() < 1e-9, "{s} vs {f}");
        }
        // Mean inter-arrival gap approximates 1/rate.
        let mean_gap = slow.last().unwrap() / slow.len() as f64;
        assert!((mean_gap - 0.1).abs() < 0.02, "{mean_gap}");
    }

    #[test]
    fn bursty_arrivals_keep_the_average_rate_but_cluster() {
        let n = 2000;
        let plain = poisson_arrivals(20.0, n, 11);
        let bursty = bursty_arrivals(20.0, 6.0, n, 11);
        assert!(bursty.windows(2).all(|w| w[1] > w[0]));
        let mean_plain = plain.last().unwrap() / n as f64;
        let mean_bursty = bursty.last().unwrap() / n as f64;
        assert!(
            (mean_bursty / mean_plain - 1.0).abs() < 0.15,
            "same long-run rate: {mean_plain} vs {mean_bursty}"
        );
        // Burstiness shows up as higher inter-arrival variance.
        let cv2 = |ts: &[f64]| {
            let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64 / (mean * mean)
        };
        assert!(
            cv2(&bursty) > cv2(&plain) * 1.3,
            "{} vs {}",
            cv2(&bursty),
            cv2(&plain)
        );
        assert_eq!(
            bursty_arrivals(20.0, 6.0, 50, 3),
            bursty_arrivals(20.0, 6.0, 50, 3)
        );
    }

    #[test]
    fn chat_sessions_respect_the_sample_budget() {
        let samples = hotpotqa_like(1024, 30, 4);
        let sessions = chat_sessions(&samples, 4, 2.0, 10.0, 4);
        assert_eq!(sessions.len(), samples.len());
        for (session, sample) in sessions.iter().zip(&samples) {
            // Context length after every turn: prefill plus all user and
            // decoded tokens.
            let final_len = session.prefill.valid_len
                + session
                    .turns
                    .iter()
                    .map(|t| t.user_tokens + t.decode_tokens)
                    .sum::<usize>();
            assert!(
                final_len <= sample.valid_len.max(8),
                "session overflows its budget: {final_len} > {}",
                sample.valid_len
            );
            assert!(!session.turns.is_empty());
            assert_eq!(session.turns[0].user_tokens, 0, "turn 0 reuses prefill");
            assert_eq!(session.turns[0].think_s, 0.0);
            for turn in &session.turns[1..] {
                assert!(turn.user_tokens > 0, "follow-ups append user tokens");
                assert!(turn.think_s > 0.0, "follow-ups wait on the user");
            }
            assert!(session
                .prefill
                .special_tokens
                .iter()
                .all(|&t| t < session.prefill.valid_len));
            assert!(session.decode_steps() > 0);
        }
        // Arrivals strictly increase (Poisson process).
        assert!(sessions.windows(2).all(|w| w[1].arrival_s > w[0].arrival_s));
    }

    #[test]
    fn chat_sessions_are_deterministic_and_multi_turn() {
        let samples = msmarco_like(1024, 40, 9);
        let a = chat_sessions(&samples, 4, 3.0, 5.0, 1);
        let b = chat_sessions(&samples, 4, 3.0, 5.0, 1);
        assert_eq!(a, b);
        let c = chat_sessions(&samples, 4, 3.0, 5.0, 2);
        assert_ne!(a, c, "seed changes the sessions");
        let multi = a.iter().filter(|s| s.turns.len() >= 2).count();
        assert!(
            multi * 2 > a.len(),
            "most sessions should be multi-turn: {multi}/{}",
            a.len()
        );
    }

    #[test]
    fn representative_is_median_by_length() {
        let samples = msmarco_like(2048, 9, 3);
        let rep = representative(&samples);
        let shorter = samples
            .iter()
            .filter(|s| s.valid_len <= rep.valid_len)
            .count();
        assert!(shorter >= samples.len() / 2);
    }
}
