//! Property tests: the LLC delivers every message exactly once, in
//! order, regardless of message sizes and injected fault rates.

use llc::link::LlcLink;
use llc::LlcConfig;
use netsim::fault::FaultSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exactly_once_in_order_under_faults(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        sizes in prop::collection::vec(1usize..=7, 1..120),
    ) {
        let msgs: Vec<(u32, usize)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        let mut link = LlcLink::new(
            LlcConfig::default(),
            FaultSpec::new(drop, corrupt),
            seed,
        );
        let got = link.run_to_completion(msgs.clone()).expect("link makes progress");
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn frame_flit_budget_is_respected(
        sizes in prop::collection::vec(1usize..=7, 1..200),
    ) {
        // Every assembled frame is exactly `frame_flits` flits: padding
        // with nops, never splitting a message.
        let msgs: Vec<(u32, usize)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        let mut frames = Vec::new();
        llc::frame::assemble(msgs, 8, llc::FrameId(0), 0, &mut Vec::new(), &mut frames);
        for f in frames {
            prop_assert_eq!(f.flits(), 8);
        }
    }

    #[test]
    fn credit_conservation(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.2,
        n in 1u32..150,
    ) {
        // After quiescence the transmitter's credit pool is full again:
        // every consumed credit was returned exactly once.
        let msgs: Vec<(u32, usize)> = (0..n).map(|i| (i, 3)).collect();
        let mut link = LlcLink::new(
            LlcConfig::default(),
            FaultSpec::new(drop, 0.0),
            seed,
        );
        link.run_to_completion(msgs).expect("link makes progress");
        let credits = link.tx_a().credits();
        prop_assert_eq!(credits.available(), credits.max());
    }
}
