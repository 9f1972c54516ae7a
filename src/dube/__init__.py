"""Duple-balanced ensemble learning for class-imbalanced classification.

The package couples two balancing moves inside an iterative ensemble:
inter-class resampling (under / over / hybrid targets) and intra-class
instance weighting driven by the current ensemble's prediction errors,
plus covariance-calibrated Gaussian augmentation of the resampled rows.
A Monte Carlo bias lab quantifies how each resampling strategy moves a
max-margin boundary on 1-D two-Gaussian toys.
"""

from .balancing import (InterCBStrategy, IntraCBStrategy, hem_weights, resample_step,
                        shem_weights, target_class_size, weighted_resample)
from .biaslab import (BiasTrialReport, BoundCheck, ToyConfig, check_pbda_bound,
                      draw_trials, run_bias_trials)
from .dataset import (Dataset, DatasetError, FoldPlan, class_counts,
                      inject_flip_noise, load_csv, make_gaussian_1d,
                      make_overlap_2d, stratified_k_fold)
from .ensemble import (DubeConfig, EnsembleModel, dube_fit, load_model,
                       save_model)
from .learners import (KnnParams, TreeParams, fit_learner, knn_fit, tree_fit)
from .metrics import (EvalReport, confusion_matrix, evaluate, macro_auroc,
                      macro_f1, mcc)
from .pbda import ClassCovariance, class_covariance, perturb
from .rng import RNG_ALGORITHM

__version__ = "0.1.0"

__all__ = [
    "BiasTrialReport", "BoundCheck", "ClassCovariance", "Dataset",
    "DatasetError", "DubeConfig", "EnsembleModel",
    "EvalReport", "FoldPlan", "InterCBStrategy", "IntraCBStrategy",
    "KnnParams", "RNG_ALGORITHM", "ToyConfig", "TreeParams",
    "check_pbda_bound", "class_counts",
    "class_covariance", "confusion_matrix", "draw_trials", "dube_fit",
    "evaluate", "fit_learner", "hem_weights",
    "inject_flip_noise", "knn_fit", "load_csv", "load_model",
    "macro_auroc", "macro_f1", "make_gaussian_1d", "make_overlap_2d",
    "mcc", "perturb", "resample_step",
    "run_bias_trials", "save_model", "shem_weights",
    "stratified_k_fold", "target_class_size", "tree_fit",
    "weighted_resample",
]
