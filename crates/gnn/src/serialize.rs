//! Encoder persistence: architecture descriptor + weights, via the
//! first-party binary codec (no external dependencies, deterministic
//! roundtrips). The format lets a household checkpoint its representation
//! model on device (the paper runs clients on a Raspberry Pi).
//!
//! v2 frames store weights in the fixed-layout matrix format
//! (`write_matrix_fixed`): contiguous f64 LE payloads behind checksummed
//! headers, so the artifact store can verify and bulk-load them without a
//! per-element decode loop. Platform tags are shared with
//! `fexiot_graph::serialize` so models and cached datasets agree.

use crate::{Encoder, Gcn, Gin, Magnn};
use fexiot_graph::serialize::{platform_from_tag, platform_tag};
use fexiot_tensor::codec::{ByteReader, ByteWriter, CodecError};

const MAGIC: u64 = 0xFE_10_07_E4_C0_DE_02_00;

const TAG_GCN: u8 = 1;
const TAG_GIN: u8 = 2;
const TAG_MAGNN: u8 = 3;

/// Serializes an encoder (architecture + weights) into bytes.
pub fn encoder_to_bytes(encoder: &Encoder) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_u64(MAGIC);
    match encoder {
        Encoder::Gcn(e) => {
            w.write_u8(TAG_GCN);
            w.write_usize(e.input_dim);
            w.write_usize(e.hidden.len());
            for &h in &e.hidden {
                w.write_usize(h);
            }
            w.write_usize(e.output_dim);
            w.write_matrices_fixed(&e.params);
        }
        Encoder::Gin(e) => {
            w.write_u8(TAG_GIN);
            w.write_usize(e.input_dim);
            w.write_usize(e.hidden.len());
            for &h in &e.hidden {
                w.write_usize(h);
            }
            w.write_usize(e.output_dim);
            w.write_matrices_fixed(&e.params);
        }
        Encoder::Magnn(e) => {
            w.write_u8(TAG_MAGNN);
            w.write_usize(e.type_dims.len());
            for &(p, d) in &e.type_dims {
                w.write_u8(platform_tag(p));
                w.write_usize(d);
            }
            w.write_usize(e.hidden);
            w.write_usize(e.att_dim);
            w.write_usize(e.output_dim);
            w.write_matrices_fixed(&e.params);
        }
    }
    w.into_bytes()
}

/// Restores an encoder from [`encoder_to_bytes`] output.
pub fn encoder_from_bytes(bytes: &[u8]) -> Result<Encoder, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.read_u64()? != MAGIC {
        return Err(CodecError::BadHeader);
    }
    let tag = r.read_u8()?;
    match tag {
        TAG_GCN | TAG_GIN => {
            let input_dim = r.read_usize()?;
            let n_hidden = r.read_usize()?;
            let hidden: Result<Vec<usize>, _> = (0..n_hidden).map(|_| r.read_usize()).collect();
            let hidden = hidden?;
            let output_dim = r.read_usize()?;
            let params = r.read_matrices_fixed()?;
            Ok(if tag == TAG_GCN {
                Encoder::Gcn(Gcn {
                    input_dim,
                    hidden,
                    output_dim,
                    params,
                })
            } else {
                Encoder::Gin(Gin {
                    input_dim,
                    hidden,
                    output_dim,
                    params,
                })
            })
        }
        TAG_MAGNN => {
            let n_types = r.read_usize()?;
            // Each entry is a platform tag byte plus a u64 dim: reject a count
            // the input cannot hold before reserving for it.
            if n_types > r.remaining() / 9 {
                return Err(CodecError::BadLength(n_types as u64));
            }
            let mut type_dims = Vec::with_capacity(n_types);
            for _ in 0..n_types {
                let p = platform_from_tag(r.read_u8()?)?;
                let d = r.read_usize()?;
                type_dims.push((p, d));
            }
            let hidden = r.read_usize()?;
            let att_dim = r.read_usize()?;
            let output_dim = r.read_usize()?;
            let params = r.read_matrices_fixed()?;
            Ok(Encoder::Magnn(Magnn {
                type_dims,
                hidden,
                att_dim,
                output_dim,
                params,
            }))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::FeatureConfig;
    use fexiot_tensor::rng::Rng;

    #[test]
    fn gcn_and_gin_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        for enc in [
            Encoder::Gcn(Gcn::new(20, &[16, 8], 6, &mut rng)),
            Encoder::Gin(Gin::new(20, &[16], 6, &mut rng)),
        ] {
            let bytes = encoder_to_bytes(&enc);
            let back = encoder_from_bytes(&bytes).unwrap();
            assert_eq!(back.params(), enc.params());
            assert_eq!(back.layer_sizes(), enc.layer_sizes());
            assert_eq!(back.embed_dim(), enc.embed_dim());
        }
    }

    #[test]
    fn magnn_roundtrip_preserves_type_dims() {
        let mut rng = Rng::seed_from_u64(2);
        let enc = Encoder::Magnn(Magnn::for_config(
            FeatureConfig::small(),
            16,
            8,
            6,
            &mut rng,
        ));
        let bytes = encoder_to_bytes(&enc);
        let back = encoder_from_bytes(&bytes).unwrap();
        assert_eq!(back.params(), enc.params());
        if let (Encoder::Magnn(a), Encoder::Magnn(b)) = (&enc, &back) {
            assert_eq!(a.type_dims, b.type_dims);
        } else {
            panic!("wrong variant after roundtrip");
        }
    }

    #[test]
    fn restored_encoder_embeds_identically() {
        let mut rng = Rng::seed_from_u64(3);
        let mut gen = fexiot_graph::CorpusGenerator::new();
        let rules = gen.generate(&fexiot_graph::CorpusConfig::ifttt_only(40), &mut rng);
        let index = fexiot_graph::CorpusIndex::build(rules);
        let builder = fexiot_graph::GraphBuilder::new(FeatureConfig::small());
        let g = builder.sample_graph(&index, 5, &mut rng);
        let d = g.nodes[0].features.len();
        let enc = Encoder::Gin(Gin::new(d, &[12], 6, &mut rng));
        let back = encoder_from_bytes(&encoder_to_bytes(&enc)).unwrap();
        assert_eq!(enc.embed(&g), back.embed(&g));
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(matches!(
            encoder_from_bytes(&[]),
            Err(CodecError::UnexpectedEof)
        ));
        let mut bytes = encoder_to_bytes(&Encoder::Gin(Gin::new(
            4,
            &[4],
            2,
            &mut Rng::seed_from_u64(4),
        )));
        bytes[0] ^= 0xFF; // break the magic
        assert!(matches!(
            encoder_from_bytes(&bytes),
            Err(CodecError::BadHeader)
        ));
    }

    #[test]
    fn oversized_magnn_type_count_is_rejected_without_allocating() {
        // MAGIC, TAG_MAGNN, n_types = 2^32 and nothing else: the count must
        // be refused against the remaining input, not reserved for.
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        bytes.push(TAG_MAGNN);
        bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
        assert_eq!(bytes.len(), 17);
        assert!(matches!(
            encoder_from_bytes(&bytes),
            Err(CodecError::BadLength(n)) if n == 1 << 32
        ));
    }
}
