"""Encrypted joint source-channel transmission of images over AWGN.

The chain couples a (trainable) source codec with uniform quantization,
lattice public-key encryption over Z_p, QAM modulation and soft
demodulation. The legitimate receiver decrypts a real-valued noisy
ciphertext and treats the combined crypto and channel perturbation as one
additive noise source; a security harness estimates the eavesdropper's
advantage empirically.
"""

from .codec import CodecSpec
from .config import (load_codec, load_public_key, load_secret_key, save_codec,
                     save_key_files)
from .datasets import DatasetSpec, read_image, synthesize_dataset
from .lwe import (Ciphertext, ErrorTriple, KeyPair, LweParams, PublicKey, centered,
                  decrypt, derive_error_rows, encrypt, error_rows, keygen, keygen_stack)
from .metrics import ms_ssim, mse, psnr, ssim
from .modem import (Constellation, awgn, build_constellation, channel_noise,
                    modulate, noise_variance, receive, soft_demodulate)
from .pipeline import draw_messages, records_to_csv, sweep, transmit_latent
from .quantizer import (QuantizerConfig, anneal_sigma_q, build_centroids,
                        hard_quantize, soft_dequantize, soft_quantize_jacobian)
from .rng import stream
from .security import (AttackConfig, AttackReport, GameConfig, GameResult,
                       run_cpa_attack, run_ind_cpa_game)
from .training import (TrainContext, TrainState, evaluate, init_train_state,
                       train_codec, train_step)

__version__ = "0.1.0"
