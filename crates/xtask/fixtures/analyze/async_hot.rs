//! BNS-A005 fixture: the parser sees into `async fn` bodies — an
//! allocation inside an async hot entry, and one inside an async
//! helper it awaits, are both flagged.

pub async fn hot_entry_async(n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    out.extend_from_slice(&fill().await);
    out
}

async fn fill() -> Vec<f32> {
    Vec::with_capacity(4)
}
