//! From-scratch cryptographic primitives for the crypto NFs.
//!
//! Reproduction-quality implementations validated against FIPS-197 /
//! SP 800-38A (AES-128, CBC) and RFC 8439 (ChaCha20) test vectors. Each
//! cipher has a fast body the CPU selects and a portable one that is also
//! its test oracle: AES runs on the CPU's AES instructions where `aes.rs`
//! detects them and is table-driven everywhere else, with every table
//! derived from the GF(2⁸) definition at first use rather than
//! transcribed; ChaCha20 runs eight blocks per pass on AVX2 where
//! `chacha.rs` detects it and a block at a time everywhere else. Not
//! constant-time (the AES table body); not for real traffic.

pub mod aes;
pub mod chacha;

pub use aes::{
    cbc_decrypt, cbc_decrypt_in_place, cbc_encrypt, cbc_encrypt_in_place, pkcs7_pad_len, Aes128,
};
pub use chacha::ChaCha20;
