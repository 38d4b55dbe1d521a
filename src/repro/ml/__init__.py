"""From-scratch machine-learning substrate (numpy only).

Implements the model families a `scikit-learn`-based NFV paper would use,
with a compatible ``fit`` / ``predict`` / ``predict_proba`` API:

* linear models — :class:`~repro.ml.linear.LinearRegression`,
  :class:`~repro.ml.linear.RidgeRegression`,
  :class:`~repro.ml.linear.LogisticRegression`
* trees — :class:`~repro.ml.tree.DecisionTreeClassifier`,
  :class:`~repro.ml.tree.DecisionTreeRegressor`
* ensembles — :class:`~repro.ml.forest.RandomForestClassifier`,
  :class:`~repro.ml.forest.RandomForestRegressor`,
  :class:`~repro.ml.boosting.GradientBoostingClassifier`,
  :class:`~repro.ml.boosting.GradientBoostingRegressor`
* neural — :class:`~repro.ml.mlp.MLPClassifier`,
  :class:`~repro.ml.mlp.MLPRegressor`
* baseline — :class:`~repro.ml.naive_bayes.GaussianNB`

plus preprocessing (scalers, one-hot), metrics, and model selection.

Tree-based models are evaluated by the packed inference engine
(:class:`~repro.ml.packed.PackedEnsemble`): all trees are flattened
into one contiguous node block and traversed in a single vectorized
frontier loop, byte-identical to the per-tree reference loops but
several times faster (see ``docs/performance.md``).  The same node
block backs vectorized TreeSHAP attribution
(:mod:`~repro.ml.packed_shap`): both the path-dependent and the
interventional variant run as array sweeps over all (row, leaf)
states, matching the recursive reference explainers to <= 1e-10.
"""

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression, LogisticRegression, RidgeRegression
from repro.ml.mlp import MLPClassifier, MLPRegressor
from repro.ml.naive_bayes import GaussianNB
from repro.ml.packed import PackedEnsemble, PackedModelMixin
from repro.ml.packed_shap import (
    PackedPathTable,
    packed_interventional_shap,
    packed_tree_shap,
)
from repro.ml.preprocessing import MinMaxScaler, OneHotEncoder, StandardScaler
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "GaussianNB",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "LinearRegression",
    "LogisticRegression",
    "MinMaxScaler",
    "MLPClassifier",
    "MLPRegressor",
    "OneHotEncoder",
    "PackedEnsemble",
    "PackedModelMixin",
    "PackedPathTable",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "RegressorMixin",
    "RidgeRegression",
    "StandardScaler",
    "packed_interventional_shap",
    "packed_tree_shap",
]
