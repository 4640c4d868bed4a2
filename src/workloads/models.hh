/**
 * @file
 * Layer specifications of the real ML models used in Figures 11 and
 * 14. The paper sparsifies activations (Liu et al. 2024) and
 * attention (Sanger/ViTCoD-style for unstructured, Longformer /
 * Mistral sliding-window for structured); here each model is a small
 * set of representative layers with the published dimensions, and the
 * sparse tensors themselves are synthesized at matching sparsity
 * (DESIGN.md, substitution table).
 */

#ifndef CANON_WORKLOADS_MODELS_HH
#define CANON_WORKLOADS_MODELS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace canon
{

/** The kernel kinds a scenario or a model layer runs. */
enum class Workload : std::uint8_t
{
    Gemm,        //!< dense GEMM via the dense-cadence kernel
    Spmm,        //!< unstructured-sparse x dense
    SpmmNm,      //!< N:M structured-sparse x dense
    Sddmm,       //!< unstructured sampled dense-dense
    SddmmWindow, //!< sliding-window sampled dense-dense
};

/**
 * One kernel execution: a model layer, or a whole canonsim shape
 * scenario (a one-layer model).
 */
struct LayerSpec
{
    std::string name;
    Workload workload;
    std::int64_t m, k, n;
    double sparsity = 0.0;    //!< input (Spmm) or mask (Sddmm)
    std::int64_t window = 0;  //!< SddmmWindow band width
    double repeats = 1.0;     //!< layer multiplicity in the model
    int nmN = 2;              //!< N of the SpmmNm pattern
    int nmM = 4;              //!< M of the SpmmNm pattern
};

struct ModelSpec
{
    std::string name;
    std::vector<LayerSpec> layers;
};

/** ResNet-50 conv stages as im2col GEMMs, 50 % activation sparsity. */
ModelSpec resnet50Conv(double sparsity = 0.5);

/** LLaMA-8B MLP (4096 -> 14336 -> 4096) at seq 512. */
ModelSpec llama8bMlp(double sparsity);

/** LLaMA-8B attention QK^T scores, unstructured sparsification. */
ModelSpec llama8bAttn(double sparsity = 0.7);

/** Mistral-7B MLP (4096 -> 14336 -> 4096) at seq 512. */
ModelSpec mistral7bMlp(double sparsity);

/** Mistral-7B sliding-window attention (window 4096, context 16K). */
ModelSpec mistral7bAttn();

/** BERT + Longformer window (Win1: window 512, seq 4K). */
ModelSpec longformerAttn();

/** A predefined model, as the CLI's --model names it. */
struct ModelInfo
{
    std::string name; //!< "resnet50", "llama8b-mlp", ...
    /** Build the model; the argument feeds its sparsified layers. */
    ModelSpec (*build)(double sparsity);
    /**
     * The canonical Figure-14 sparsity a CLI run builds the model at
     * unless --sparsity overrides it, so CLI model runs reproduce the
     * bench figures by default. Empty for the window-structured
     * attention models (mistral7b-attn, longformer), whose builders
     * take no sparsity, which the CLI's relevance matrix and the
     * result cache rely on.
     */
    std::optional<double> sparsity;
};

/** Every predefined model, in Figure-14 order. */
const std::vector<ModelInfo> &modelTable();

/** The model named @p name, or nullptr when there is none. */
const ModelInfo *findModel(const std::string &name);

} // namespace canon

#endif // CANON_WORKLOADS_MODELS_HH
