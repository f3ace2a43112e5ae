"""Encrypted joint source-channel transmission of images over AWGN.

The chain couples a (trainable) source codec with uniform quantization,
lattice public-key encryption over Z_p, QAM modulation and soft
demodulation. The legitimate receiver decrypts a real-valued noisy
ciphertext and treats the combined crypto and channel perturbation as one
additive noise source; a security harness estimates the eavesdropper's
advantage empirically.
"""

from .codec import CodecSpec, load_codec, save_codec
from .datasets import DatasetSpec, read_image, synthesize_dataset, write_image
from .lwe import (Ciphertext, ErrorTriple, KeyPair, LweParams, PublicKey,
                  centered, decrypt, decrypt_noisy, derive_error_rows,
                  derive_errors, encrypt, error_rows, keygen, keygen_stack,
                  lattice_product, load_public_key, load_secret_key,
                  sample_discrete_gaussian, save_key_files)
from .metrics import ms_ssim, mse, psnr, ssim
from .modem import (Constellation, awgn, build_constellation, modulate,
                    noise_variance, receive, soft_demodulate)
from .pipeline import (TransmissionRecord, records_to_csv, sweep, transmit,
                       transmit_latent)
from .quantizer import (QuantizedLatent, QuantizerConfig, anneal_sigma_q,
                        build_centroids, hard_quantize, soft_dequantize,
                        soft_quantize, soft_quantize_jacobian)
from .rng import stream
from .security import (AttackConfig, AttackReport, GameConfig, GameResult,
                       run_cpa_attack, run_ind_cpa_game)
from .training import (TrainContext, TrainState, evaluate, init_train_state,
                       train_codec, train_step)

__version__ = "0.1.0"
