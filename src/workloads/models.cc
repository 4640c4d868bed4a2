#include "workloads/models.hh"

#include "common/logging.hh"

namespace canon
{

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
    ModelSpec m;
    m.name = sparsity > 0.0 ? "Llama8B-MLP(sparse)"
                            : "Llama8B-MLP(dense)";
    const auto kind = sparsity > 0.0 ? Workload::Spmm : Workload::Gemm;
    m.layers = {
        {"gate_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"up_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"down_proj", kind, 512, 14336, 4096, sparsity, 0, 1},
    };
    return m;
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
    ModelSpec m;
    m.name = sparsity > 0.0 ? "Mistral7B-MLP(sparse)"
                            : "Mistral7B-MLP(dense)";
    const auto kind = sparsity > 0.0 ? Workload::Spmm : Workload::Gemm;
    m.layers = {
        {"gate_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"up_proj", kind, 512, 4096, 14336, sparsity, 0, 1},
        {"down_proj", kind, 512, 14336, 4096, sparsity, 0, 1},
    };
    return m;
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

const std::vector<std::string> &
knownModelNames()
{
    static const std::vector<std::string> names = {
        "resnet50",      "llama8b-mlp",   "llama8b-attn",
        "mistral7b-mlp", "mistral7b-attn", "longformer",
    };
    return names;
}

ModelSpec
modelByName(const std::string &name, double sparsity)
{
    if (name == "resnet50")
        return resnet50Conv(sparsity);
    if (name == "llama8b-mlp")
        return llama8bMlp(sparsity);
    if (name == "llama8b-attn")
        return llama8bAttn(sparsity);
    if (name == "mistral7b-mlp")
        return mistral7bMlp(sparsity);
    if (name == "mistral7b-attn")
        return mistral7bAttn();
    if (name == "longformer")
        return longformerAttn();
    fatal("unknown model '", name, "'");
    return {};
}

bool
modelUsesSparsity(const std::string &name)
{
    // Derived from the registry rather than a parallel name list (a
    // list would silently drift when a model is added): the model has
    // a sparsity knob iff moving the knob changes its layer specs.
    for (const auto &known : knownModelNames()) {
        if (known != name)
            continue;
        const ModelSpec lo = modelByName(name, 0.25);
        const ModelSpec hi = modelByName(name, 0.75);
        for (std::size_t i = 0;
             i < lo.layers.size() && i < hi.layers.size(); ++i)
            if (lo.layers[i].sparsity != hi.layers[i].sparsity)
                return true;
        return false;
    }
    return false;
}

ModelSpec
modelByName(const std::string &name)
{
    // Canonical Figure-14 sparsities (see bench_fig14_edp.cc).
    if (name == "resnet50")
        return resnet50Conv(0.5);
    return modelByName(name, 0.7);
}

} // namespace canon
