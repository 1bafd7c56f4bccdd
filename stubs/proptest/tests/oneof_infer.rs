//! Regression test: `prop_oneof!` arms must infer the union's value
//! type from an `impl Strategy<Value = _>` return position alone.

use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
enum E {
    A,
    B,
    C(u32),
}

fn arb_e() -> impl Strategy<Value = E> {
    prop_oneof![Just(E::A), Just(E::B), any::<u32>().prop_map(E::C),]
}

#[test]
fn generates_all_variants() {
    let mut rng = proptest::test_runner::TestRng::new(1);
    let s = arb_e();
    let (mut a, mut b, mut c) = (false, false, false);
    for _ in 0..200 {
        match s.generate(&mut rng) {
            E::A => a = true,
            E::B => b = true,
            E::C(_) => c = true,
        }
    }
    assert!(a && b && c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Doc comments and config attributes must both parse.
    #[test]
    fn macro_round_trip(x in 0u32..100, s in "[a-z]{1,4}", v in proptest::collection::vec(any::<u8>(), 0..8)) {
        prop_assert!(x < 100);
        prop_assert!((1..=4).contains(&s.len()), "bad len {}", s.len());
        prop_assert_eq!(v.len() < 8, true);
    }
}
