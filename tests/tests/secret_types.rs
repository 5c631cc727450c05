//! Secret-bearing types never implement `PartialEq`: a derived `==`
//! returns at the first differing limb, so its timing leaks where two
//! secrets differ. Secrets compare through `prochlo_crypto::util::ct_eq`.
//!
//! Checked at compile time: `NotEq<_>` has one blanket impl for every type
//! and a second for `PartialEq` types, so naming the method is ambiguous
//! (E0283) the moment one of these types gains `PartialEq`, derived or
//! manual. `Scalar` and `AeadKey` keep manual constant-time impls; a derive
//! beside them is a conflicting-impl error (E0119). The crate-private
//! `Poly1305` state, which holds its one-time key's `r` and `s`, is checked
//! the same way in its own module.

use prochlo_crypto::elgamal::{BlindingSecret, ElGamalKeypair};
use prochlo_crypto::schnorr::SigningKey;
use prochlo_crypto::{EphemeralSecret, HybridKeypair, StaticSecret};
use prochlo_sgx::CpuKey;

trait NotEq<Marker> {
    fn checked() {}
}
impl<T: ?Sized> NotEq<()> for T {}
impl<T: ?Sized + PartialEq> NotEq<u8> for T {}

#[test]
fn secret_types_have_no_partial_eq() {
    let _ = <StaticSecret as NotEq<_>>::checked;
    let _ = <EphemeralSecret as NotEq<_>>::checked;
    let _ = <BlindingSecret as NotEq<_>>::checked;
    let _ = <SigningKey as NotEq<_>>::checked;
    let _ = <ElGamalKeypair as NotEq<_>>::checked;
    let _ = <HybridKeypair as NotEq<_>>::checked;
    let _ = <CpuKey as NotEq<_>>::checked;
}
