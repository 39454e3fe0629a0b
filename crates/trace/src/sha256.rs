//! A self-contained SHA-256 implementation (FIPS 180-4).
//!
//! The paper's empirical obliviousness experiment keeps a *hash* of the
//! access log instead of the log itself once the log grows too large
//! (`H ← h(H‖r‖t‖i)` per access, with `h` = SHA-256).  Fingerprinting a
//! trace only needs a compression function, not a crypto library, so the
//! digest is implemented here rather than pulling in an external crate
//! (see DESIGN.md, dependency policy).
//!
//! The implementation is the straightforward reference one.  Queries whose
//! public shape has been seen before never reach it (the engine's digest
//! memo runs them untraced); the first run of a shape and the periodic
//! re-audits stream their trace through one running hasher
//! ([`HashingSink`](crate::HashingSink)).

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first eight primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use obliv_trace::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     Sha256::hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partially filled buffer first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }

        // Whole blocks straight from the input.
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finish the computation and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);

        // Padding: a single 0x80 byte, zeros, then the 64-bit big-endian
        // message length, written straight into the block buffer.  The
        // buffer always has room for the 0x80 (`buffered <= 63`); when fewer
        // than 8 bytes remain after it the length spills into a second,
        // otherwise all-zero block.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered > 55 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer.fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Render a digest as lowercase hex.
    pub fn hex(digest: &[u8; 32]) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for &b in digest {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test vectors from FIPS 180-4 / NIST CAVP.
    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = Sha256::digest(&data);

        // Feed in awkward chunk sizes to exercise buffering boundaries.
        let mut h = Sha256::new();
        let mut offset = 0usize;
        let mut step = 1usize;
        while offset < data.len() {
            let end = (offset + step).min(data.len());
            h.update(&data[offset..end]);
            offset = end;
            step = (step * 3 + 1) % 97 + 1;
        }
        assert_eq!(h.finalize(), oneshot);
    }

    /// One vector per `buffered` length at finalisation (0..=63), from an
    /// independent implementation: message `n` is the `n` bytes
    /// `(7·i + n) mod 256`.  Lengths 56..=63 take the two-block padding path.
    const PADDING_VECTORS: [&str; 64] = [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "4b2871da34670fde248604e0f18fd3e4f7e1e6dfddb85875ce4813a6612953bb",
        "6ab0dba1f4f1dfbb37b4f9eeb092c09fca4900ad32bdcd147d8dde35d6c87c35",
        "cc91969ee8b9da49f3933da02bec0a0d76371ef157f714b13631bb2f407a4973",
        "548f1ba2c502bd93810ef83438de04d26a146e5823278f0378e2e38d923cc9ba",
        "d9bebe62a203867f0c920dbc538564c76f18c638330cf890d08d0c7e0fdc54de",
        "ea329d80a200b1286da016c04c276e9fcebeee29524620ebd43de9e176758a8b",
        "f8d2f3f092c61db3436e728bafd621519c6791af5717fbcde1129c46a0543a7a",
        "ebf38f05d6fc18eb20501c148d263ea4142dc05997c39b8115df468fabe24c36",
        "ebed051b211cb0a57d718c0fd615f26c4f4c10795065a0af4f2cbbc26ed01868",
        "ee18d80dcfd97fac8641cceea5963d7e381fb3587c0ec6f348f0125997616666",
        "274224d6c11e917050d9d6888859bcec53005cb3d60fb495719ff72a6364bf0b",
        "c4b3934428b91502f206ba80227cf5fcc9958439e59aa6c0b5322645d338df4d",
        "f78441705ae97dbaffd31176ec0af0b9c91e9a53bc7dd9c15f5bd6d7ece32df1",
        "d31c84cc2efdfd46172a6a9ac805f3c5c97cf4d022e01b908766e5fd1f9c9e4a",
        "91fa54b4c0e5e3a891506f57e99f07f62aaecd9970e1f810879ff0eae16df8e1",
        "cf197c749c317130c1aed54475ec6219ad2aa7ceac4fad5936765cbed6a84239",
        "82b26c6311062c95ffb7d7d6a0bee809e554df76ae939689d97348d5eeb457a7",
        "676dcbeefaee7884904edbbb638c46e128708863b42a2679e1ace6c1461ed133",
        "f35ba44648199dab8eb9bb6d26b13fda6881eea60d9173fafe777ad6797c4139",
        "3256422b793254e921d91ab785b3103e237c8c706cd1286127c44bc69054156f",
        "b570f8fff9068961d07204a0487d52b2acc0ce1b23e41484150eda4629f965e2",
        "480bb272abf65f910eb3fa6b2117d32ea4f2599ed6abe28f897fa15832c56041",
        "6aa2009703184ac2fd5d1b20bab1d4e623b84e7b54e26123d2b8fa2bd740da5f",
        "46f22d0ccbf632d805c45ff6a7d7e2f1385373a5d828213a7ac89014fbace914",
        "564930899a2fb00ed684727195494b0a0eb3e0e2cdddb41e9a78dbfe3555b9ca",
        "9e27fdce89d0a64d3c0a0ccd9341c11be2843ab08a7cb5dbf1a610014bf6e885",
        "6a05fba98b7125a7f8ea6cfe9f790c5aa86dda3384c84639d4f298eb304d7000",
        "b3c98cf7efac5d577c8a6ead041bc3664c6f21fa135ee787d3eb0bedee16f760",
        "546f9cdd5dda6d9c4811e8d4a4c99275ef818db15670537b40bb36ccd302df49",
        "6c56c9f0cdd4759c04aa75b8583e11614c25b347c984ca4c6bcb1fdfb09fb268",
        "70b25e78a713fbc17ba3f5e9b25c16200202a776ddb67fffb745d54b9eee7f29",
        "91b1f04c498a0d2ca0febf8a29dba678ce15d4aeac21e98a53a085d8282af974",
        "a77a82ddcf79dbe08af6e0bd1ddda6a171a6072da4ad2803862ec026d5dc503e",
        "0def435a63f49281a9e094a9c964dc0c3d6fab4827b891fe9aa6f35e64fad324",
        "76f2688492f21aba2a86b08e13a247ce840dc30ccabf21862b91239e1707d42e",
        "604830b3652558d2d9ac958c34f1debdba6859158d6ea1dbbfa5d22b8d9decd1",
        "e9484af304e6d192e4bdd3bdfe42f030151749df00d21ee87ed1e0af69b57f23",
        "f2ce036a5df7ba3c3371f03481f5467745aea7fd507e63ce411527778140731b",
        "1270085085f65984aab55bfcf7492c19398287be300eccd63a672f356c1baa71",
        "d52c9271a0abb9a550458ef007298e081f4a3df9d8cdbd550dc74f0295b90be7",
        "89e9f1b17a66aa2d8e0db18994eb46ea708c80dc4a9e38502d1b45ae5f7ef9f2",
        "b1dc5861b075492acf33e6f81f35c5a5c2e203ababd48519b2996dca7c45e210",
        "88a0cbfc483fa18863a68ff64c65068acdbaf1d4d1d711ba571f3878939e2aa3",
        "adfdb4e4b9148927466ed3f66788359fc855ecaef3dde5e7be3993330d6595e5",
        "5d7fb8c327ef28f29bcf495f34363edbe8431ddee46f2a1e9dd72937254b65d6",
        "c05eafab9b09805c95e2c01f223c4653404d70f489fab51bd742c1bb7c76f128",
        "1b9bb7841d34207a75844bda7ec99dfb91dc4517ece1e9fc49d3b6b38d92237f",
        "f2fbae74481f752aeaddf50d6c25d9deb91f38da5d235558647a9c20bc02e38d",
        "12e6b65d4fcac474a100d3ab2bbf0719d42087ba57eaba68890a7cce4b11a63b",
        "45c4681f7dd5aec0e6ed45c47182717f6b3f94a4b04a0dd35544c111e50916f6",
        "7307c900dd081594bbb2801f01e27636cb1d6b02dd68ec98f4ac44abf27ea370",
        "b960bcf7aeb65bf7e750f593499c9854104a731ccc29a1df02822a27530f3bc8",
        "1ad616be707a2b269ecfe28bdea4a4284a4f78a221287d45b98004231f501c77",
        "81afe5b788dc2ce138ff83d9b20164db75a94d75d2b2432eea4a0ef605088c72",
        "2aba54f0ac632420a2b502431408866e40e1d5e430df4cd822642c78ab2eb9c1",
        "903284efbf9100e8ba1614ec65eacacad125e03f857cae7acbf8b73b23e0fdfe",
        "49298f1616fb5777d7a68085f2be223e74b64e84b9dbb9b3e3e6f66599bcbcf1",
        "1b70d65ef02ab7524c4070295da64f4bc1742de82bc0f53a7241a211827bb65c",
        "a7395392b500ee1855fd4fb13ce5d863a5581fd02b981710533d5a83fbfab7bd",
        "eb75a7c80ccaebf13a9fbbe4db10e9fda98c623597d1ff194ba34a21852127d7",
        "c2c02d573cda0bf7b8c680a27687b40193446315b46675442d1ffacde704d4fc",
        "733d3d4ee79ee67145bf73da13588f6f235d37414fc64b14a2f00f1762792f5e",
    ];

    #[test]
    fn every_final_block_fill_pads_correctly() {
        for (n, expected) in PADDING_VECTORS.iter().enumerate() {
            let message: Vec<u8> = (0..n).map(|i| (i * 7 + n) as u8).collect();
            assert_eq!(Sha256::hex(&Sha256::digest(&message)), *expected, "n = {n}");
        }
    }

    #[test]
    fn hex_encodes_all_nibbles() {
        let mut digest = [0u8; 32];
        digest[0] = 0xff;
        digest[1] = 0x01;
        let hex = Sha256::hex(&digest);
        assert!(hex.starts_with("ff01"));
        assert_eq!(hex.len(), 64);
    }
}
