#include "workloads/models.hh"

namespace canon
{

namespace
{

/**
 * The 4096 -> 14336 -> 4096 MLP block LLaMA-8B and Mistral-7B share,
 * at seq 512: SpMM on sparsified activations, dense GEMM otherwise.
 */
ModelSpec
mlp4096x14336(const std::string &model, double sparsity)
{
    ModelSpec m;
    m.name = model + (sparsity > 0.0 ? "-MLP(sparse)" : "-MLP(dense)");
    const auto kind = sparsity > 0.0 ? Workload::Spmm : Workload::Gemm;
    m.layers = {
        {"gate_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"up_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"down_proj", kind, 512, 14336, 4096, sparsity, 0, 1},
    };
    return m;
}

} // namespace

ModelSpec
resnet50Conv(double sparsity)
{
    // Representative im2col shapes of the four ResNet-50 stages
    // (batch 1): M = H*W, K = Cin*3*3 (or 1x1), N = Cout.
    ModelSpec m;
    m.name = "Resnet50-Conv";
    m.layers = {
        {"conv2_3x3", Workload::Spmm, 3136, 576, 64, sparsity, 0, 3},
        {"conv3_3x3", Workload::Spmm, 784, 1152, 128, sparsity, 0, 4},
        {"conv4_3x3", Workload::Spmm, 196, 2304, 256, sparsity, 0, 6},
        {"conv5_3x3", Workload::Spmm, 49, 4608, 512, sparsity, 0, 3},
    };
    return m;
}

ModelSpec
llama8bMlp(double sparsity)
{
    return mlp4096x14336("Llama8B", sparsity);
}

ModelSpec
llama8bAttn(double sparsity)
{
    // QK^T per head: seq x seq scores over head_dim 128; 32 heads.
    ModelSpec m;
    m.name = "Llama8B-Attn";
    m.layers = {
        {"qk_scores", Workload::Sddmm, 512, 128, 512, sparsity, 0,
         32},
    };
    return m;
}

ModelSpec
mistral7bMlp(double sparsity)
{
    return mlp4096x14336("Mistral7B", sparsity);
}

ModelSpec
mistral7bAttn()
{
    // Sliding-window attention: window 4096 over a 16K context
    // (SDDMM-Win2 of Section 6.2), 32 heads of dim 128.
    ModelSpec m;
    m.name = "Mistral7B-Attn";
    m.layers = {
        {"qk_window", Workload::SddmmWindow, 16384, 128, 16384, 0.0,
         4096, 32},
    };
    return m;
}

ModelSpec
longformerAttn()
{
    // Longformer on BERT: window 512 over seq 4K (SDDMM-Win1), 12
    // heads of dim 64.
    ModelSpec m;
    m.name = "Longformer-Attn";
    m.layers = {
        {"qk_window", Workload::SddmmWindow, 4096, 64, 4096, 0.0, 512,
         12},
    };
    return m;
}

const std::vector<ModelInfo> &
modelTable()
{
    static const std::vector<ModelInfo> table = {
        {"resnet50", resnet50Conv, 0.5},
        {"llama8b-mlp", llama8bMlp, 0.7},
        {"llama8b-attn", llama8bAttn, 0.7},
        {"mistral7b-mlp", mistral7bMlp, 0.7},
        {"mistral7b-attn", [](double) { return mistral7bAttn(); },
         std::nullopt},
        {"longformer", [](double) { return longformerAttn(); },
         std::nullopt},
    };
    return table;
}

const ModelInfo *
findModel(const std::string &name)
{
    for (const ModelInfo &m : modelTable())
        if (m.name == name)
            return &m;
    return nullptr;
}

} // namespace canon
