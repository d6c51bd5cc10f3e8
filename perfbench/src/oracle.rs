//! Independent GF(2^8) reference encoder.
//!
//! Multiplication is carry-less shift-and-add reduced by the RS
//! polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), written here from the
//! definition and sharing no table or kernel with the coder under test.
//! Only the coefficient matrix is taken from the coder
//! (`Dialga::inner().parity_matrix()`): the oracle checks that the
//! kernels apply that matrix correctly, not how the matrix was chosen.

use dialga::Dialga;

/// Product in GF(2^8) mod 0x11D, bit by bit.
pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= 0x1D; // x^8 = x^4 + x^3 + x^2 + 1
        }
        b >>= 1;
    }
    p
}

/// Scalar reference encoder over a coder's parity matrix.
pub struct Oracle {
    /// `m x k` coefficients, row-major.
    coef: Vec<u8>,
    k: usize,
    m: usize,
    /// `product[c][x] = c * x`, built with [`gf_mul`].
    product: Vec<[u8; 256]>,
}

impl Oracle {
    pub fn new(coder: &Dialga) -> Oracle {
        let pm = coder.inner().parity_matrix();
        let (m, k) = (pm.rows(), pm.cols());
        let coef = (0..m)
            .flat_map(|r| (0..k).map(move |c| (r, c)))
            .map(|rc| pm[rc].0)
            .collect();
        let product = (0..=255u8)
            .map(|c| std::array::from_fn(|x| gf_mul(c, x as u8)))
            .collect();
        Oracle {
            coef,
            k,
            m,
            product,
        }
    }

    /// The `m` parity blocks of `data` (`k` equal-length blocks).
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "oracle needs k data blocks");
        let len = data[0].len();
        (0..self.m)
            .map(|r| {
                let mut out = vec![0u8; len];
                for (c, block) in data.iter().enumerate() {
                    let row = &self.product[self.coef[r * self.k + c] as usize];
                    for (o, &x) in out.iter_mut().zip(block) {
                        *o ^= row[x as usize];
                    }
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_products_mod_0x11d() {
        assert_eq!(gf_mul(0, 0xAB), 0);
        assert_eq!(gf_mul(1, 0xAB), 0xAB);
        assert_eq!(gf_mul(3, 7), 9); // (x+1)(x^2+x+1) = x^3+1, no reduction
        assert_eq!(gf_mul(0x80, 2), 0x1D); // x^8 reduces to 0x1D
        assert_eq!(gf_mul(0x80, 4), 0x3A);
        assert_eq!(gf_mul(0x8E, 2), 1); // 0x8E is the inverse of x
        assert_eq!(gf_mul(0xFF, 2), 0xE3);
    }

    #[test]
    fn two_generates_the_multiplicative_group() {
        let mut x = 1u8;
        for i in 1..=255 {
            x = gf_mul(x, 2);
            assert_eq!(x == 1, i == 255, "order of 2 must be 255 (step {i})");
        }
    }

    #[test]
    fn multiplication_is_commutative_and_distributive() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(5) {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                let c = a.wrapping_mul(31) ^ b;
                assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
            }
        }
    }

    #[test]
    fn oracle_matches_hand_computed_parity() {
        // One byte per block; the parity is sum_j P[r][j] * d_j by hand.
        let coder = Dialga::new(3, 2).unwrap();
        let oracle = Oracle::new(&coder);
        let data = vec![vec![0x01], vec![0x02], vec![0x80]];
        let parity = oracle.encode(&data);
        for (r, row) in parity.iter().enumerate() {
            let mut want = 0u8;
            for (j, d) in data.iter().enumerate() {
                want ^= gf_mul(oracle.coef[r * 3 + j], d[0]);
            }
            assert_eq!(*row, vec![want]);
        }
        // Zero data encodes to zero parity whatever the matrix.
        let zeros = vec![vec![0u8; 64]; 3];
        assert!(oracle.encode(&zeros).iter().flatten().all(|&b| b == 0));
    }

    #[test]
    fn oracle_agrees_with_the_coder() {
        let coder = Dialga::new(6, 3).unwrap();
        let oracle = Oracle::new(&coder);
        let mut rng = dialga_testkit::Rng::new(7);
        let data: Vec<Vec<u8>> = (0..6).map(|_| rng.bytes(4096)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        assert_eq!(oracle.encode(&data), coder.encode_vec(&refs).unwrap());
    }
}
